package core

import (
	"fmt"
	"math/bits"

	"graphmat/internal/bitvec"
)

// This file holds the n×k block analogues of the engine's sparse vectors and
// per-run vertex state: a block frontier/reduction vector (BlockVector), the
// engine scratch pairing two of them (BlockWorkspace), and the per-run vertex
// state of a multi-source run (BlockState). k is capped at 64 so every
// per-vertex column set is one machine word; batches wider than 64 sources
// split into word-sized blocks one level up (algorithms.RunBatch).

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
	cols    []uint64
	vals    []T
}

// NewBlockVector allocates an empty n×k block vector.
func NewBlockVector[T any](n, k int) *BlockVector[T] {
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

// touch ensures vertex v's column mask is valid after a Reset, returning it.
func (b *BlockVector[T]) touch(v uint32) uint64 {
	return touchRow(b.summary.Words(), b.cols, v)
}

// Set stores val at (vertex v, column s).
func (b *BlockVector[T]) Set(v uint32, s int, val T) {
	cm := b.touch(v)
	b.cols[v] = cm | 1<<uint(s)
	b.vals[int(v)*b.k+s] = val
}

// ColMask returns vertex v's live-column mask (0 when v has no entries).
func (b *BlockVector[T]) ColMask(v uint32) uint64 {
	if !b.summary.Get(v) {
		return 0
	}
	return b.cols[v]
}

// Row returns vertex v's k-wide value row; entries are meaningful only at
// set mask bits.
func (b *BlockVector[T]) Row(v uint32) []T {
	return b.vals[int(v)*b.k : int(v)*b.k+b.k]
}

// Summary exposes the vertex-level occupancy bitvector (read-only use).
func (b *BlockVector[T]) Summary() *bitvec.Vector { return b.summary }

// Occupancy returns the number of live vertices (distinct senders) and live
// (vertex, column) entries — popcounts of the occupancy masks, read once per
// phase by the engine instead of tallying counters per Set in the send loop.
func (b *BlockVector[T]) Occupancy() (vertices, entries int) {
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
// per-vertex column masks, lazily zeroed). It replaces the graph's scalar
// props/active for block runs — a block run never touches the graph's own
// vertex state, so scalar and block runs can share one pinned snapshot.
type BlockState[V any] struct {
	n, k    int
	props   []V
	active  []uint64
	summary *bitvec.Vector
}

// NewBlockState allocates vertex state for a k-source run over n vertices.
// 1 <= k <= MaxBlockSources.
func NewBlockState[V any](n, k int) *BlockState[V] {
	if k < 1 || k > MaxBlockSources {
		panic(fmt.Sprintf("core: block width %d outside [1, %d]", k, MaxBlockSources))
	}
	return &BlockState[V]{
		n: n, k: k,
		props:   make([]V, n*k),
		active:  make([]uint64, n),
		summary: bitvec.New(n),
	}
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
// n) — the per-source result extraction.
func (st *BlockState[V]) Column(s int, out []V) {
	for v := 0; v < st.n; v++ {
		out[v] = st.props[v*st.k+s]
	}
}

// Activate marks (vertex v, column s) active for the next superstep.
func (st *BlockState[V]) Activate(v uint32, s int) {
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
	if mask == 0 || st.n == 0 {
		return
	}
	for v := 0; v < st.n; v++ {
		st.active[v] = mask
	}
	w := st.summary.Words()
	for i := range w {
		w[i] = ^uint64(0)
	}
	if r := st.n & 63; r != 0 {
		w[len(w)-1] = (uint64(1) << uint(r)) - 1
	}
}

// ClearActive deactivates every (vertex, column) pair in O(n/64).
func (st *BlockState[V]) ClearActive() { st.summary.Reset() }

// ActiveColumns returns the OR of all per-vertex active masks: bit s set
// means column s still has at least one active vertex. Batch drivers use it
// for per-column convergence tracking.
func (st *BlockState[V]) ActiveColumns() uint64 {
	var live uint64
	st.summary.Iterate(func(v uint32) { live |= st.active[v] })
	return live
}
