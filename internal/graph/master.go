package graph

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"graphmat/internal/sparse"
)

// Master is a log-structured raw edge set: an immutable normalized base
// adjacency plus an overlay holding the final state — value or tombstone —
// of every (src, dst) key touched since the last fold. It is the serving
// layer's source of truth for the raw edges, and exists so that
// acknowledging an update batch costs O(batch) rather than the O(|E|)
// merge-copy ApplyToAdjacency pays:
//
//   - Apply records the batch in the overlay and keeps the live edge count
//     incrementally.
//   - Lookup consults the overlay, then binary-searches the base's row.
//   - Materialize and Fold are the only O(|E|) operations, and run where an
//     O(|E|) cost is being paid anyway: a lazy instance build consumes a
//     materialized copy, a checkpoint folds and writes the base, and Apply
//     folds by itself once the overlay outgrows DefaultCompactFraction of
//     the base (so the overlay — and Materialize's sort of it — stay
//     bounded, and the fold amortizes to O(1) per touched key).
//
// Whatever the batching, Materialize is entry-for-entry what chaining
// ApplyToAdjacency over the same batches produces. A Master is safe for
// concurrent use; Apply and Fold are its writers.
type Master[E any] struct {
	nrows, ncols uint32 // fixed at construction

	mu      sync.RWMutex
	base    *sparse.COO[E] // normalized; never mutated, replaced by fold
	rows    []int          // base row r is base.Entries[rows[r]:rows[r+1]]
	overlay map[uint64]overlayState[E]
	edges   int // live edge count: base adjusted by the overlay
	folds   int64
}

// overlayState is the post-batch state of one touched key.
type overlayState[E any] struct {
	val E
	del bool
}

func edgeKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// NewMaster wraps a normalized adjacency (NormalizeAdjacency: row-major
// sorted, deduplicated) as the master's base. The master takes ownership:
// the caller must not modify base afterwards.
func NewMaster[E any](base *sparse.COO[E]) *Master[E] {
	return &Master[E]{
		nrows:   base.NRows,
		ncols:   base.NCols,
		base:    base,
		rows:    rowStarts(base),
		overlay: make(map[uint64]overlayState[E]),
		edges:   len(base.Entries),
	}
}

// NumVertices reports the adjacency's row count (fixed across updates).
func (m *Master[E]) NumVertices() uint32 { return m.nrows }

// NumEdges reports the live edge count.
func (m *Master[E]) NumEdges() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.edges
}

// Check reports the error Apply would return for the batch, without applying
// anything — for callers that must make a batch durable between validating
// and applying it.
func (m *Master[E]) Check(batch []Update[E]) error {
	return checkUpdates(batch, m.nrows, m.ncols)
}

// Apply applies one batch in order, so the last mutation of a repeated key
// wins. A batch referencing a vertex outside the adjacency is rejected whole.
func (m *Master[E]) Apply(batch []Update[E]) error {
	if err := m.Check(batch); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range batch {
		key := edgeKey(u.Src, u.Dst)
		prior, touched := m.overlay[key]
		live := touched && !prior.del
		if !touched {
			_, live = m.lookupBase(u.Src, u.Dst)
			if u.Del && !live {
				continue // never existed: nothing to mask
			}
		}
		switch {
		case live && u.Del:
			m.edges--
		case !live && !u.Del:
			m.edges++
		}
		m.overlay[key] = overlayState[E]{val: u.Val, del: u.Del}
	}
	if float64(len(m.overlay)) > DefaultCompactFraction*float64(len(m.base.Entries)) {
		m.fold()
	}
	return nil
}

// Lookup reports whether the edge src→dst is live, and its value.
func (m *Master[E]) Lookup(src, dst uint32) (E, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, touched := m.overlay[edgeKey(src, dst)]
	switch {
	case !touched:
		return m.lookupBase(src, dst)
	case st.del:
		var zero E
		return zero, false
	}
	return st.val, true
}

// lookupBase binary-searches base row src for dst: a search of one row's
// entries, not of the whole base.
func (m *Master[E]) lookupBase(src, dst uint32) (E, bool) {
	row := m.base.Entries[m.rows[src]:m.rows[src+1]]
	i, ok := slices.BinarySearchFunc(row, dst, func(t sparse.Triple[E], dst uint32) int {
		return cmp.Compare(t.Col, dst)
	})
	if !ok {
		var zero E
		return zero, false
	}
	return row[i].Val, true
}

// rowStarts returns the offset of each row of a row-major sorted adjacency
// in its entries, and the entry count last.
func rowStarts[E any](adj *sparse.COO[E]) []int {
	rows := make([]int, adj.NRows+1)
	for _, t := range adj.Entries {
		rows[t.Row+1]++
	}
	for r := range adj.NRows {
		rows[r+1] += rows[r]
	}
	return rows
}

// Materialize returns the live edge set as a fresh normalized adjacency the
// caller owns.
func (m *Master[E]) Materialize() *sparse.COO[E] {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.materialize()
}

func (m *Master[E]) materialize() *sparse.COO[E] {
	keys := slices.Sorted(maps.Keys(m.overlay)) // key order is (src, dst) order
	pending := make([]Update[E], len(keys))
	for i, key := range keys {
		st := m.overlay[key]
		pending[i] = Update[E]{Src: uint32(key >> 32), Dst: uint32(key), Val: st.val, Del: st.del}
	}
	return mergeUpdates(m.base, pending)
}

// Fold merges the overlay into a fresh base (a no-op when the overlay is
// empty) and returns the base: the whole live edge set, shared and read-only.
func (m *Master[E]) Fold() *sparse.COO[E] {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fold()
	return m.base
}

func (m *Master[E]) fold() {
	if len(m.overlay) == 0 {
		return
	}
	m.base = m.materialize()
	m.rows = rowStarts(m.base)
	m.overlay = make(map[uint64]overlayState[E])
	m.folds++
}

// MasterStats is a point-in-time view of a Master for observability.
type MasterStats struct {
	// LiveEdges is the current raw edge count; BaseEdges the edge count of
	// the base the overlay sits on.
	LiveEdges int `json:"live_edges"`
	BaseEdges int `json:"base_edges"`
	// OverlayKeys counts the distinct edges touched since the last fold.
	OverlayKeys int `json:"overlay_keys"`
	// Folds counts overlay folds: one per checkpoint that found pending
	// updates, plus the batches whose overlay crossed the fold threshold —
	// those batches paid an O(|E|) merge on the acknowledgement path.
	Folds int64 `json:"folds"`
}

// Stats snapshots the master's counters.
func (m *Master[E]) Stats() MasterStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MasterStats{
		LiveEdges:   m.edges,
		BaseEdges:   len(m.base.Entries),
		OverlayKeys: len(m.overlay),
		Folds:       m.folds,
	}
}
