package matrixengine

import (
	"math"
	"testing"
	"testing/quick"

	"graphmat/internal/gen"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

func prepared(seed uint64, scale, ef, maxW int) *sparse.COO[float32] {
	c := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: ef, Seed: seed, MaxWeight: maxW})
	c.RemoveSelfLoops()
	c.SortRowMajor()
	c.DedupKeepFirst()
	return c
}

func TestGridFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 24: 4, 25: 5}
	for threads, want := range cases {
		if got := GridFor(threads); got != want {
			t.Errorf("GridFor(%d) = %d, want %d", threads, got, want)
		}
	}
}

func TestMatrixBlocksTile(t *testing.T) {
	coo := prepared(1, 7, 4, 0)
	want := len(coo.Entries)
	m := NewMatrix(coo, 9) // 3x3 grid
	if m.grid != 3 || m.Workers() != 9 {
		t.Fatalf("grid = %d workers = %d", m.grid, m.Workers())
	}
	total := 0
	for i := 0; i < m.grid; i++ {
		for j := 0; j < m.grid; j++ {
			blk := m.blocks[i][j]
			total += blk.NNZ()
			blk.Iterate(func(r, c uint32, _ float32) {
				if r < m.rowBounds[i] || r >= m.rowBounds[i+1] {
					t.Fatalf("block (%d,%d) row %d out of range", i, j, r)
				}
				if c < m.colBounds[j] || c >= m.colBounds[j+1] {
					t.Fatalf("block (%d,%d) col %d out of range", i, j, c)
				}
			})
		}
	}
	if total != want {
		t.Errorf("blocks hold %d entries, want %d", total, want)
	}
}

func TestMatrixPageRank(t *testing.T) {
	coo := prepared(2, 7, 8, 0)
	refEdges := append([]sparse.Triple[float32](nil), coo.Entries...)
	n := coo.NRows
	outDeg := coo.RowCounts()
	m := NewMatrix(coo, 4)
	got, stats := PageRank(m, outDeg, 0.15, 15)
	want := reference.PageRank(n, refEdges, 0.15, 15)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if stats.Multiplies == 0 || stats.Iterations != 15 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMatrixBFS(t *testing.T) {
	coo := prepared(3, 7, 8, 0)
	coo.Symmetrize()
	refEdges := append([]sparse.Triple[float32](nil), coo.Entries...)
	n := coo.NRows
	m := NewMatrix(coo, 4)
	got, _ := BFS(m, 0)
	want := reference.BFS(n, refEdges, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestMatrixSSSP(t *testing.T) {
	coo := prepared(4, 7, 8, 10)
	refEdges := append([]sparse.Triple[float32](nil), coo.Entries...)
	n := coo.NRows
	m := NewMatrix(coo, 4)
	got, _ := SSSP(m, 0)
	want := reference.SSSP(n, refEdges, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestMatrixTriangles(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 8, Seed: 5, Params: gen.RMATTriangle})
	coo.RemoveSelfLoops()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	coo.Symmetrize()
	coo.UpperTriangle()
	want := reference.Triangles(coo.NRows, coo.Entries)
	csr := sparse.BuildCSR(coo)
	got, _, err := Triangles(csr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
}

func TestMatrixTrianglesOOM(t *testing.T) {
	// A tiny cap triggers the out-of-memory failure mode the paper reports
	// for CombBLAS on real-world graphs.
	coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 8, Seed: 5, Params: gen.RMATTriangle})
	coo.RemoveSelfLoops()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	coo.Symmetrize()
	coo.UpperTriangle()
	csr := sparse.BuildCSR(coo)
	if _, _, err := Triangles(csr, 10); err == nil {
		t.Error("expected intermediate-size failure with cap 10")
	}
}

func TestMatrixCFLossDecreases(t *testing.T) {
	ratings := gen.Bipartite(gen.BipartiteOptions{Users: 200, Items: 30, Ratings: 3000, Seed: 7})
	ratings.SortRowMajor()
	ratings.DedupKeepFirst()
	ratingEdges := append([]sparse.Triple[float32](nil), ratings.Entries...)
	ratings.Symmetrize()
	csr := sparse.BuildCSR(ratings)

	rng := gen.NewRNG(1)
	inits := make([]float32, int(csr.NRows)*CFLatentDim)
	for i := range inits {
		inits[i] = float32(rng.Float64()) * 0.1
	}
	init := func(v, k int) float32 { return inits[v*CFLatentDim+k] }

	prev := math.Inf(1)
	for _, iters := range []int{1, 4, 8} {
		f, _ := CF(csr, 0.002, 0.05, iters, init)
		ff := make([][]float32, len(f))
		for i := range f {
			ff[i] = f[i][:]
		}
		loss := reference.CFLoss(ratingEdges, ff, 0.05)
		if loss >= prev || math.IsNaN(loss) {
			t.Fatalf("loss did not decrease: %v -> %v", prev, loss)
		}
		prev = loss
	}
}

// Property: matrix-engine SSSP matches Dijkstra.
func TestQuickMatrixSSSP(t *testing.T) {
	f := func(seed uint64) bool {
		coo := prepared(seed, 6, 4, 8)
		refEdges := append([]sparse.Triple[float32](nil), coo.Entries...)
		n := coo.NRows
		m := NewMatrix(coo, 4)
		got, _ := SSSP(m, 0)
		want := reference.SSSP(n, refEdges, 0)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: SpGEMM triangle count matches brute force across seeds.
func TestQuickMatrixTriangles(t *testing.T) {
	f := func(seed uint64) bool {
		coo := gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 6, Seed: seed, Params: gen.RMATTriangle})
		coo.RemoveSelfLoops()
		coo.SortRowMajor()
		coo.DedupKeepFirst()
		coo.Symmetrize()
		coo.UpperTriangle()
		want := reference.Triangles(coo.NRows, coo.Entries)
		csr := sparse.BuildCSR(coo)
		got, _, err := Triangles(csr, 0)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
