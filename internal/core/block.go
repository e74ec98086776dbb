package core

import (
	"fmt"
	"math/bits"

	"graphmat/internal/bitvec"
	"graphmat/internal/sparse"
)

// This file holds the n×k block analogues of the engine's sparse vectors and
// per-run vertex state: a block frontier/reduction vector (BlockVector), the
// engine scratch pairing two of them (BlockWorkspace), and the per-run vertex
// state of a multi-source run (BlockState). k is capped at 64 so every
// per-vertex column set is one machine word; batches wider than 64 sources
// split into word-sized blocks one level up (algorithms.RunBatch).
//
// At k = 1 a vertex's only possible column set is {0}, so the summary bit IS
// column 0: a one-column block keeps no per-vertex masks (cols / active are
// nil) and is, array for array, the scalar engine's sparse vector and vertex
// state — which is how runBlock hands a k = 1 run to the scalar phases.

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
	n, k    int
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
		sv := sparse.NewVector[T](n)
		return &BlockVector[T]{n: n, k: 1, summary: sv.Mask(), vals: sv.Values(), scalar: sv}
	}
	return &BlockVector[T]{
		n: n, k: k,
		summary: bitvec.New(n),
		cols:    make([]uint64, n),
		vals:    make([]T, n*k),
	}
}

// Len returns the vertex dimension n.
func (b *BlockVector[T]) Len() int { return b.n }

// Width returns the column count k.
func (b *BlockVector[T]) Width() int { return b.k }

// Reset removes all entries in O(n/64) by clearing the summary alone.
func (b *BlockVector[T]) Reset() { b.summary.Reset() }

// Set stores val at (vertex v, column s).
func (b *BlockVector[T]) Set(v uint32, s int, val T) {
	if b.cols == nil {
		b.scalar.Set(v, val)
		return
	}
	b.cols[v] = touchRow(b.summary.Words(), b.cols, v) | 1<<uint(s)
	b.vals[int(v)*b.k+s] = val
}

// ColMask returns vertex v's live-column mask (0 when v has no entries).
func (b *BlockVector[T]) ColMask(v uint32) uint64 {
	if !b.summary.Get(v) {
		return 0
	}
	if b.cols == nil {
		return 1
	}
	return b.cols[v]
}

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

// BlockWorkspace is the block engine's reusable scratch: the n×k message
// block and the n×k reduction block — the multi-source analogue of Workspace.
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

// Size reports the vertex count the workspace was allocated for.
func (ws *BlockWorkspace[M, R]) Size() int { return ws.n }

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

// Reset clears both scratch blocks; pools call it when recycling.
func (ws *BlockWorkspace[M, R]) Reset() {
	ws.x.Reset()
	ws.y.Reset()
}

// BlockState is the per-run vertex state of a multi-source run: the n×k
// property block (props[v*k+s] is vertex v's property in source column s) and
// the n×k active set, stored like a BlockVector's occupancy (summary +
// per-vertex column masks, lazily zeroed; the summary alone at k = 1). It
// replaces the graph's scalar props/active for block runs — a block run of
// any width never touches the graph's own vertex state, so scalar and block
// runs can share one pinned snapshot.
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

// Size reports the vertex count.
func (st *BlockState[V]) Size() int { return st.n }

// Width reports the source-column count.
func (st *BlockState[V]) Width() int { return st.k }

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

// Column copies the per-vertex properties of source column s into out (length
// n) — one source's result. Extracting every column this way is k strided
// passes over the block; Columns does it in one.
func (st *BlockState[V]) Column(s int, out []V) {
	for v := 0; v < st.n; v++ {
		out[v] = st.props[v*st.k+s]
	}
}

// Columns returns every source column's per-vertex properties, cols[s][v] —
// the whole batch's result extraction, in one pass over the property rows.
func (st *BlockState[V]) Columns() [][]V {
	cols := make([][]V, st.k)
	for s := range cols {
		cols[s] = make([]V, st.n)
	}
	for v := 0; v < st.n; v++ {
		for s, p := range st.props[v*st.k : (v+1)*st.k] {
			cols[s][v] = p
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
// block analogue of SetAllActive restricted to the still-live columns (the
// batched PPR driver's per-outer-iteration reactivation).
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
