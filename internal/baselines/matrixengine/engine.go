// Package matrixengine is the reproduction's stand-in for CombBLAS v1.3: a
// pure matrix-programming engine. It recreates the architectural properties
// the paper identifies as the source of CombBLAS's profile:
//
//   - the user programs against semirings: Multiply sees only the edge value
//     and the incoming vector value — *no destination-vertex state* (§4.2's
//     expressiveness gap, the reason TC and CF are awkward);
//   - the matrix is 2-D block partitioned on a square process grid, so the
//     worker count is the largest perfect square not exceeding the thread
//     count (the paper runs CombBLAS with 16 MPI ranks on 24 cores, leaving
//     8 idle) and every SpMV materializes per-block partial vectors that a
//     second phase must merge;
//   - values cross the engine boundary boxed (CombBLAS's runtime carries
//     arbitrary user types through MPI buffers).
//
// Triangle counting has no vertex-state escape hatch, so it runs as a masked
// sparse matrix–matrix multiplication that materializes the intermediate
// product — the memory blow-up of Figure 4c.
package matrixengine

import (
	"fmt"
	"sync"

	"graphmat/internal/sparse"
)

// Semiring supplies the two overloaded operations of a generalized SpMV.
type Semiring struct {
	// Multiply combines an edge value with the source vector entry.
	Multiply func(edge float32, x any) any
	// Add folds multiply results targeting the same output index; it must
	// be commutative and associative.
	Add func(a, b any) any
}

// Stats tallies engine work for the Figure 6 counter proxies.
type Stats struct {
	Multiplies    int64
	Adds          int64
	PartialMerges int64 // entries moved in the 2-D merge phase
	Iterations    int
}

// Matrix is the 2-D block-partitioned transpose adjacency (Gᵀ): block (i,j)
// holds destinations in row range i and sources in column range j.
type Matrix struct {
	n         uint32
	grid      int
	rowBounds []uint32
	colBounds []uint32
	blocks    [][]*sparse.DCSC[float32]
}

// GridFor returns the CombBLAS process-grid side for a thread budget: the
// largest g with g² <= threads.
func GridFor(threads int) int {
	g := 1
	for (g+1)*(g+1) <= threads {
		g++
	}
	return g
}

// NewMatrix builds the blocked matrix from adjacency triples (Row = src,
// Col = dst) for the given thread budget. The input is consumed.
func NewMatrix(adj *sparse.COO[float32], threads int) *Matrix {
	grid := GridFor(threads)
	n := adj.NRows
	m := &Matrix{n: n, grid: grid}

	// Gᵀ orientation: row = dst, col = src.
	adj.Transpose()
	adj.SortColMajor()
	adj.DedupKeepFirst()

	bounds := func() []uint32 {
		b := make([]uint32, grid+1)
		step := (int(n)/grid + 64) &^ 63
		for i := 1; i < grid; i++ {
			x := i * step
			if x > int(n) {
				x = int(n)
			}
			b[i] = uint32(x)
		}
		b[grid] = n
		for i := 1; i <= grid; i++ {
			if b[i] < b[i-1] {
				b[i] = b[i-1]
			}
		}
		return b
	}
	m.rowBounds = bounds()
	m.colBounds = bounds()

	find := func(b []uint32, v uint32) int {
		lo, hi := 0, len(b)-1
		for lo < hi-1 {
			mid := (lo + hi) / 2
			if b[mid] <= v {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}

	buckets := make([][]sparse.Triple[float32], grid*grid)
	for _, t := range adj.Entries {
		i := find(m.rowBounds, t.Row)
		j := find(m.colBounds, t.Col)
		buckets[i*grid+j] = append(buckets[i*grid+j], t)
	}
	m.blocks = make([][]*sparse.DCSC[float32], grid)
	for i := 0; i < grid; i++ {
		m.blocks[i] = make([]*sparse.DCSC[float32], grid)
		for j := 0; j < grid; j++ {
			bc := &sparse.COO[float32]{NRows: n, NCols: n, Entries: buckets[i*grid+j]}
			m.blocks[i][j] = sparse.BuildDCSC(bc, m.rowBounds[i], m.rowBounds[i+1])
		}
	}
	return m
}

// N returns the matrix dimension.
func (m *Matrix) N() uint32 { return m.n }

// SpMV computes y = Gᵀ ⊗ x over the semiring. Each of the grid² blocks
// produces a partial vector in parallel (one worker per block, CombBLAS
// style); a second phase merges the per-block-row partials.
func (m *Matrix) SpMV(x *sparse.Vector[any], sr Semiring, stats *Stats) *sparse.Vector[any] {
	grid := m.grid
	partials := make([][]*sparse.Vector[any], grid)
	for i := range partials {
		partials[i] = make([]*sparse.Vector[any], grid)
	}

	var mult, adds int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				blk := m.blocks[i][j]
				part := sparse.NewVector[any](int(m.n))
				var lm, la int64
				for ci, col := range blk.JC {
					if !x.Has(col) {
						continue
					}
					xv := x.Get(col)
					for k := blk.CP[ci]; k < blk.CP[ci+1]; k++ {
						dst := blk.IR[k]
						r := sr.Multiply(blk.Val[k], xv)
						lm++
						if part.Has(dst) {
							part.Set(dst, sr.Add(part.Get(dst), r))
							la++
						} else {
							part.Set(dst, r)
						}
					}
				}
				partials[i][j] = part
				mu.Lock()
				mult += lm
				adds += la
				mu.Unlock()
			}(i, j)
		}
	}
	wg.Wait()

	// Merge phase: fold the grid partials of each block row.
	y := sparse.NewVector[any](int(m.n))
	var merges int64
	wg.Add(grid)
	mergeCounts := make([]int64, grid)
	for i := 0; i < grid; i++ {
		go func(i int) {
			defer wg.Done()
			var lm int64
			for j := 0; j < grid; j++ {
				partials[i][j].Iterate(func(idx uint32, v any) {
					lm++
					if y.Has(idx) {
						y.Set(idx, sr.Add(y.Get(idx), v))
					} else {
						y.Set(idx, v)
					}
				})
			}
			mergeCounts[i] = lm
		}(i)
	}
	wg.Wait()
	for _, c := range mergeCounts {
		merges += c
	}

	if stats != nil {
		stats.Multiplies += mult
		stats.Adds += adds
		stats.PartialMerges += merges
	}
	return y
}

// SpGEMMMaskedCount computes Σ_{(i,j)∈A} (A·A)[i,j] for a boolean matrix
// given as an upper-triangular CSR — the CombBLAS-style masked sparse
// matrix–matrix triangle count. The intermediate product rows are
// materialized in hash maps; maxIntermediate caps their total entries, and
// exceeding it aborts with an error, reproducing the paper's observation
// that "intermediate results are so large as to overflow memory" (Figure 4c:
// CombBLAS fails on the real-world datasets).
func SpGEMMMaskedCount(a *sparse.CSR[float32], maxIntermediate int64, stats *Stats) (int64, error) {
	var total int64
	var intermediate int64
	n := a.NRows
	for i := uint32(0); i < n; i++ {
		cols, _ := a.Row(i)
		if len(cols) == 0 {
			continue
		}
		// Row i of C = A·A: merge the rows of A indexed by A's row i.
		row := make(map[uint32]int64)
		var flops int64
		for _, k := range cols {
			kcols, _ := a.Row(k)
			for _, j := range kcols {
				row[j]++
			}
			flops += int64(len(kcols))
		}
		intermediate += int64(len(row))
		if stats != nil {
			stats.Multiplies += flops
			stats.Adds += flops // every product lands in a hash accumulator
		}
		if intermediate > maxIntermediate {
			return 0, fmt.Errorf("matrixengine: SpGEMM intermediate exceeded %d entries (out of memory)", maxIntermediate)
		}
		// Mask by A's row i and accumulate.
		for _, j := range cols {
			total += row[j]
		}
	}
	return total, nil
}
