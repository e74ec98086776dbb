package core

import (
	"fmt"
	"math/bits"

	"graphmat/internal/bitvec"
	"graphmat/internal/sparse"
)

// This file holds the engine's n×k run state: a block frontier/reduction
// vector (BlockVector), the engine scratch pairing two of them
// (BlockWorkspace, whose one-column case is Workspace), and the per-run
// vertex state (BlockState). k is capped at 64 so every
// per-vertex column set is one machine word; batches wider than 64 sources
// split into word-sized blocks one level up (algorithms.RunBatch).
//
// At k = 1 a vertex's only possible column set is {0}, so the summary bit IS
// column 0: a one-column block keeps no per-vertex masks (cols / active are
// nil) and is, array for array, the scalar engine's sparse vector and vertex
// state — which is why one front-end (runPhases) serves every width.

// MaxBlockSources is the widest block the engine accepts: per-vertex column
// masks are single uint64 words.
const MaxBlockSources = 64

// BlockVector is an n×k block of sparse columns sharing one occupancy
// structure: summary marks vertices with any column set, cols[v] is the
// per-vertex column mask, and vals[v*k+s] the value for (vertex v, source s).
// Row-major value layout keeps one vertex's k values on adjacent cache lines
// — the SpMM kernels touch all live columns of a destination together.
//
// Occupancy is two-level and lazily cleared: Reset clears only the summary
// (O(n/64)); cols[v] is zeroed on the first touch of v after a Reset. As with
// the scalar sparse.Vector, values are never cleared — the masks are the
// source of truth.
type BlockVector[T any] struct {
	k       int
	summary *bitvec.Vector
	cols    []uint64 // nil at k = 1
	vals    []T
	// scalar is the k = 1 block seen as the sparse vector it is (summary and
	// vals are its mask and values); nil for wider blocks.
	scalar *sparse.Vector[T]
}

// NewBlockVector allocates an empty n×k block vector.
func NewBlockVector[T any](n, k int) *BlockVector[T] {
	if k == 1 {
		return vectorBlock(sparse.NewVector[T](n))
	}
	return &BlockVector[T]{
		k:       k,
		summary: bitvec.New(n),
		cols:    make([]uint64, n),
		vals:    make([]T, n*k),
	}
}

// vectorBlock views sparse vector sv as the one-column block it is.
func vectorBlock[T any](sv *sparse.Vector[T]) *BlockVector[T] {
	return &BlockVector[T]{k: 1, summary: sv.Mask(), vals: sv.Values(), scalar: sv}
}

// Reset removes all entries in O(n/64) by clearing the summary alone.
func (b *BlockVector[T]) Reset() { b.summary.Reset() }

// Row returns vertex v's k-wide value row; entries are meaningful only at
// set mask bits.
func (b *BlockVector[T]) Row(v uint32) []T {
	return b.vals[int(v)*b.k : int(v)*b.k+b.k]
}

// Occupancy returns the number of live vertices (distinct senders) and live
// (vertex, column) entries — popcounts of the occupancy masks, read once per
// phase by the engine instead of tallying counters per Set in the send loop.
func (b *BlockVector[T]) Occupancy() (vertices, entries int) {
	if b.cols == nil {
		vertices = b.summary.Count()
		return vertices, vertices
	}
	for wi, w := range b.summary.Words() {
		base := uint32(wi) << 6
		for ; w != 0; w &= w - 1 {
			vertices++
			entries += bits.OnesCount64(b.cols[base+uint32(bits.TrailingZeros64(w))])
		}
	}
	return vertices, entries
}

// BlockWorkspace is the engine's reusable scratch: the n×k message block and
// the n×k reduction block. It mirrors the C++ API's graph_program_init /
// graph_program_clear pair (see the paper's appendix): drivers that run a
// program repeatedly — the HITS half-steps, a caller answering query after
// query — allocate one workspace and pass it to every run instead of paying
// two vertex-sized allocations per call.
type BlockWorkspace[M, R any] struct {
	n, k int
	x    *BlockVector[M]
	y    *BlockVector[R]
}

// NewBlockWorkspace allocates scratch for k-source runs over n-vertex graphs.
func NewBlockWorkspace[M, R any](n, k int) *BlockWorkspace[M, R] {
	return &BlockWorkspace[M, R]{
		n: n, k: k,
		x: NewBlockVector[M](n, k),
		y: NewBlockVector[R](n, k),
	}
}

// Width reports the source count the workspace was allocated for.
func (ws *BlockWorkspace[M, R]) Width() int { return ws.k }

// Check reports whether the workspace can serve an n-vertex, k-source run.
func (ws *BlockWorkspace[M, R]) Check(n, k int) error {
	if ws.n != n {
		return fmt.Errorf("core: block workspace sized for %d vertices, graph has %d", ws.n, n)
	}
	if ws.k != k {
		return fmt.Errorf("core: block workspace sized for %d sources, run has %d", ws.k, k)
	}
	return nil
}

// Reset clears both scratch blocks. The engine resets each before the phase
// that fills it, so Reset is not required between runs; pools call it when
// recycling a workspace so stale messages never leak across queries.
func (ws *BlockWorkspace[M, R]) Reset() {
	ws.x.Reset()
	ws.y.Reset()
}

// Workspace is the one-column BlockWorkspace: the scratch of RunContext, and
// of any block run over a single source column.
type Workspace[M, R any] = BlockWorkspace[M, R]

// NewWorkspace allocates one-column scratch for n-vertex graphs. The vector
// kind is ignored: every inlined run reads the bitvector frontier, and the
// boxed ablation picks its message vector from Config.Dispatch and manages
// its own scratch.
func NewWorkspace[M, R any](n int, _ VectorKind) *Workspace[M, R] {
	return NewBlockWorkspace[M, R](n, 1)
}

// BlockState is the vertex state of one run: the n×k property block
// (props[v*k+s] is vertex v's property in source column s) and the n×k
// active set, stored like a BlockVector's occupancy (summary + per-vertex
// column masks, lazily zeroed; the summary alone at k = 1). The graph holds
// no vertex state, so every run of any width owns its state, and any number
// of runs can share one pinned snapshot.
type BlockState[V any] struct {
	n, k    int
	props   []V
	active  []uint64 // nil at k = 1
	summary *bitvec.Vector
}

// NewBlockState allocates vertex state for a k-source run over n vertices.
// 1 <= k <= MaxBlockSources.
func NewBlockState[V any](n, k int) *BlockState[V] {
	if k < 1 || k > MaxBlockSources {
		panic(fmt.Sprintf("core: block width %d outside [1, %d]", k, MaxBlockSources))
	}
	st := &BlockState[V]{n: n, k: k, props: make([]V, n*k), summary: bitvec.New(n)}
	if k > 1 {
		st.active = make([]uint64, n)
	}
	return st
}

// Width reports the source-column count.
func (st *BlockState[V]) Width() int { return st.k }

// Props exposes the n×k property block, row-major: vertex v's property in
// column s is Props()[v*k+s], so a one-column state's block is indexed by
// vertex.
func (st *BlockState[V]) Props() []V { return st.props }

// Active exposes the vertex-level active set: vertex v is in it when any of
// its columns is active, so at k = 1 it is the active set itself.
func (st *BlockState[V]) Active() *bitvec.Vector { return st.summary }

// Prop returns vertex v's property in column s.
func (st *BlockState[V]) Prop(v uint32, s int) V { return st.props[int(v)*st.k+s] }

// SetProp sets vertex v's property in column s.
func (st *BlockState[V]) SetProp(v uint32, s int, p V) { st.props[int(v)*st.k+s] = p }

// SetAllProps sets every (vertex, column) property to p.
func (st *BlockState[V]) SetAllProps(p V) {
	for i := range st.props {
		st.props[i] = p
	}
}

// InitProps sets each (vertex, column) property with a function of both.
func (st *BlockState[V]) InitProps(fn func(v uint32, s int) V) {
	for v := 0; v < st.n; v++ {
		row := st.props[v*st.k : (v+1)*st.k]
		for s := range row {
			row[s] = fn(uint32(v), s)
		}
	}
}

// columnTile is the vertex count Columns transposes at a time: a tile's rows
// (at most 64 × 64 properties) stay in cache while each column's slice of
// the tile is written, and each of those writes is a run of 64 consecutive
// slots rather than one slot per column per vertex.
const columnTile = 64

// Columns returns every source column's per-vertex properties, cols[s][v] —
// the whole batch's result extraction. A one-column block is one copy; a
// wider one is transposed a tile of columnTile vertices at a time, filling
// each column's [v0, v1) from the tile's rows.
func (st *BlockState[V]) Columns() [][]V {
	cols := make([][]V, st.k)
	for s := range cols {
		cols[s] = make([]V, st.n)
	}
	if st.k == 1 {
		copy(cols[0], st.props)
		return cols
	}
	k := st.k
	for v0 := 0; v0 < st.n; v0 += columnTile {
		v1 := min(v0+columnTile, st.n)
		rows := st.props[v0*k : v1*k]
		for s, col := range cols {
			dst := col[v0:v1]
			for i := range dst {
				dst[i] = rows[i*k+s]
			}
		}
	}
	return cols
}

// Activate marks (vertex v, column s) active for the next superstep.
func (st *BlockState[V]) Activate(v uint32, s int) {
	if st.active == nil {
		st.summary.Set(v)
		return
	}
	w := st.summary.Words()
	bit := uint64(1) << (v & 63)
	if w[v>>6]&bit == 0 {
		w[v>>6] |= bit
		st.active[v] = 0
	}
	st.active[v] |= 1 << uint(s)
}

// ActivateAllMask marks every vertex active in every column of mask — the
// block analogue of SetAllActive, and with the still-live columns as mask an
// AllVerticesActive run's step between supersteps (reactivation).
func (st *BlockState[V]) ActivateAllMask(mask uint64) {
	if mask == 0 {
		return
	}
	for v := range st.active {
		st.active[v] = mask
	}
	st.summary.SetAll()
}

// ClearActive deactivates every (vertex, column) pair in O(n/64).
func (st *BlockState[V]) ClearActive() { st.summary.Reset() }

// ActiveColumns returns the OR of all per-vertex active masks: bit s set
// means column s still has at least one active vertex. Batch drivers use it
// for per-column convergence tracking.
func (st *BlockState[V]) ActiveColumns() uint64 {
	if st.active == nil {
		if st.summary.Any() {
			return 1
		}
		return 0
	}
	var live uint64
	st.summary.Iterate(func(v uint32) { live |= st.active[v] })
	return live
}

// reactivation returns the superstep loop's step between supersteps
// (phaseSet.reactivate) for program p over st: nil unless p declares
// AllVerticesActive, and otherwise a step that re-activates every vertex of
// each column still holding an active pair and returns the new frontier's
// vertex count.
func (st *BlockState[V]) reactivation(p any) func() int64 {
	if _, ok := p.(AllVerticesActive); !ok {
		return nil
	}
	return func() int64 {
		st.ActivateAllMask(st.ActiveColumns())
		return int64(st.summary.Count())
	}
}
