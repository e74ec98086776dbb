package graph

import (
	"sync"
	"sync/atomic"

	"graphmat/internal/bitvec"
	"graphmat/internal/sparse"
)

// Store is a versioned mutable graph: a sequence of immutable, epoch-numbered
// Snapshots of a Graph, advanced by batched edge updates. Reads (engine runs)
// pin a snapshot and see exactly that epoch's edge set for their whole run,
// whatever writers do meanwhile; writes serialize on the store and publish a
// successor snapshot that shares the base structures and carries the batch as
// per-partition delta overlays. Once the overlay outgrows
// Options.CompactFraction of the base, the write that crossed the line also
// folds everything back into freshly built base partitions (the PR-3
// parallel ingestion path), so steady-state update cost stays amortized
// O(batch) while reads never pay more than one bounded overlay.
type Store[V, E any] struct {
	mu  sync.Mutex // serializes writers: ApplyEdges, Compact
	cur atomic.Pointer[Snapshot[V, E]]

	// onCompact, when set, runs synchronously after every compaction
	// publish — the store's persistent mode (see OnCompact).
	onCompact func(epoch uint64)

	batches     atomic.Int64
	compactions atomic.Int64
	pinned      atomic.Int64
}

// Snapshot is one pinned, immutable version of a store's graph. The Graph it
// exposes never changes once published; the pin refcount tracks how many
// readers still hold it (surfaced in StoreStats, and the contract future
// buffer-recycling must honor).
type Snapshot[V, E any] struct {
	store *Store[V, E]
	g     *Graph[V, E]
	pins  atomic.Int64
}

// DefaultCompactFraction is the overlay-to-base size ratio beyond which
// ApplyEdges compacts when Options.CompactFraction is zero.
const DefaultCompactFraction = 0.25

// NewStore builds a versioned store whose epoch-0 snapshot is the graph
// NewFromCOO would build from the same input (the adjacency is consumed the
// same way).
func NewStore[V, E any](adj *sparse.COO[E], opts Options) (*Store[V, E], error) {
	g, err := NewFromCOO[V, E](adj, opts)
	if err != nil {
		return nil, err
	}
	s := &Store[V, E]{}
	s.cur.Store(&Snapshot[V, E]{store: s, g: g})
	return s, nil
}

// Acquire pins and returns the current snapshot. The snapshot's graph is
// valid (and frozen at its epoch) regardless of concurrent updates or
// compactions for as long as the pin is held.
//
// Every Acquire obligates the caller to exactly one Snapshot.Release on
// every path out of the acquiring code — early returns and error branches
// included — unless ownership of the snapshot is handed to another owner
// who will release it. The idiomatic form is:
//
//	snap := store.Acquire()
//	defer snap.Release()
//
// A leaked pin never fails loudly: it silently keeps the superseded epoch's
// memory reachable and makes StoreStats.Pinned drift upward. The snappin
// analyzer (internal/lint, run by `make lint` and CI) enforces this contract
// statically.
func (s *Store[V, E]) Acquire() *Snapshot[V, E] {
	sn := s.cur.Load()
	sn.pins.Add(1)
	s.pinned.Add(1)
	return sn
}

// Epoch reports the current (latest-published) edge-set version.
func (s *Store[V, E]) Epoch() uint64 { return s.cur.Load().g.epoch }

// NumVertices reports the vertex count (fixed at construction; updates
// mutate edges only).
func (s *Store[V, E]) NumVertices() uint32 { return s.cur.Load().g.n }

// NumEdges reports the current snapshot's live edge count.
func (s *Store[V, E]) NumEdges() int64 { return s.cur.Load().g.m }

// ApplyEdges applies one batch of edge updates and publishes the successor
// snapshot, one epoch later. Within a batch the last mutation of a (src,
// dst) key wins. Updates referencing vertices outside the graph fail the
// whole batch; nothing is published. When the resulting overlay exceeds the
// compaction fraction the new snapshot is published pre-compacted (same
// epoch, same edge set, fresh base).
func (s *Store[V, E]) ApplyEdges(batch []Update[E]) (ApplyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	ng, res, err := old.g.applyBatch(batch)
	if err != nil {
		return res, err
	}
	frac := ng.opts.CompactFraction
	if frac == 0 {
		frac = DefaultCompactFraction
	}
	if frac > 0 && float64(ng.overlayNNZ) > frac*float64(ng.baseNNZ()) {
		ng = ng.compacted()
		s.compactions.Add(1)
		res.Compacted = true
	}
	s.cur.Store(&Snapshot[V, E]{store: s, g: ng})
	s.batches.Add(1)
	if res.Compacted {
		s.notifyCompact(ng.epoch)
	}
	return res, nil
}

// OnCompact registers the store's persistent-mode hook: fn runs
// synchronously after every compaction publish (automatic from ApplyEdges,
// explicit Compact, or the fold StoreImage performs), with the writer lock
// held — so the write that compacts does not return before fn does, which
// is what lets a persistence layer make "compacted" imply "durable". fn
// must be fast and must not call back into the store's writer methods
// (ApplyEdges, Compact, StoreImage); setting a flag or writing an already
// captured image is the intended shape.
func (s *Store[V, E]) OnCompact(fn func(epoch uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCompact = fn
}

// notifyCompact invokes the persistent-mode hook; callers hold s.mu.
func (s *Store[V, E]) notifyCompact(epoch uint64) {
	if s.onCompact != nil {
		s.onCompact(epoch)
	}
}

// baseNNZ is the base structures' stored entry count: the base's edges once
// per built direction — the denominator of the compaction trigger.
func (g *Graph[V, E]) baseNNZ() int64 {
	n := g.baseEdges()
	if g.opts.Directions == Both {
		n *= 2
	}
	return n
}

// baseEdges is the edge count of the base structures: the stored entries
// of one built direction's base partitions.
func (g *Graph[V, E]) baseEdges() int64 {
	parts := g.outParts
	if g.opts.Directions&Out == 0 {
		parts = g.inParts
	}
	var n int64
	for _, p := range parts {
		n += int64(p.NNZ())
	}
	return n
}

// Compact folds the current snapshot's overlay into freshly built base
// structures and publishes the result at the SAME epoch (compaction changes
// the representation, never the edge set). Pinned older snapshots remain
// valid. No-op when there is no overlay.
func (s *Store[V, E]) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if old.g.pendingUpdates == 0 {
		return
	}
	ng := old.g.compacted()
	s.cur.Store(&Snapshot[V, E]{store: s, g: ng})
	s.compactions.Add(1)
	s.notifyCompact(ng.epoch)
}

// StoreStats is a point-in-time view of the store for observability.
type StoreStats struct {
	// Epoch is the latest-published edge-set version.
	Epoch uint64 `json:"epoch"`
	// Batches counts update batches applied over the store's lifetime.
	Batches int64 `json:"batches"`
	// Compactions counts overlay folds (automatic and explicit).
	Compactions int64 `json:"compactions"`
	// Pinned counts snapshots acquired and not yet released, across all
	// epochs.
	Pinned int64 `json:"pinned"`
	// LiveEdges is the current snapshot's edge count; BaseEdges the edge
	// count of its base structures (they differ by the un-compacted
	// overlay's net effect).
	LiveEdges int64 `json:"live_edges"`
	BaseEdges int64 `json:"base_edges"`
	// OverlayNNZ is the overlay's storage cost in entries;
	// PendingUpdates the normalized mutations applied since the base was
	// built (0 right after a compaction).
	OverlayNNZ     int64 `json:"overlay_nnz"`
	PendingUpdates int   `json:"pending_updates"`
}

// Stats snapshots the store's counters.
func (s *Store[V, E]) Stats() StoreStats {
	g := s.cur.Load().g
	return StoreStats{
		Epoch:          g.epoch,
		Batches:        s.batches.Load(),
		Compactions:    s.compactions.Load(),
		Pinned:         s.pinned.Load(),
		LiveEdges:      g.m,
		BaseEdges:      g.baseEdges(),
		OverlayNNZ:     g.overlayNNZ,
		PendingUpdates: g.pendingUpdates,
	}
}

// Graph exposes the snapshot's graph. It is frozen structurally, but its
// vertex properties and active set are run state: one engine run at a time
// per Graph. Concurrent runs on the same snapshot each take a View.
func (sn *Snapshot[V, E]) Graph() *Graph[V, E] { return sn.g }

// Epoch reports the snapshot's edge-set version.
func (sn *Snapshot[V, E]) Epoch() uint64 { return sn.g.epoch }

// Release unpins the snapshot. Call it exactly once per Acquire: releasing
// twice corrupts the pin accounting (the counts go negative and a compaction
// may reclaim an epoch another holder still reads), and never releasing
// leaks the epoch's memory for the store's lifetime. Reads through the
// snapshot (Graph, Epoch, View) do not discharge the obligation — only
// Release does. The snappin analyzer (internal/lint) checks the
// release-on-every-path half of this contract at compile time.
func (sn *Snapshot[V, E]) Release() {
	sn.pins.Add(-1)
	sn.store.pinned.Add(-1)
}

// View returns a graph sharing this snapshot's immutable structure (base
// partitions, deltas, degrees) with FRESH vertex properties
// and active set, so multiple runs can execute concurrently against one
// pinned epoch without sharing mutable state. Build stores with the
// Directions your programs need: a lazy direction build on a view is
// per-view work.
func (sn *Snapshot[V, E]) View() *Graph[V, E] {
	v := *sn.g
	v.props = make([]V, v.n)
	v.active = bitvec.New(int(v.n))
	return &v
}
