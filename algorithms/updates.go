package algorithms

import (
	"fmt"

	"graphmat"
)

// Live-update plumbing for the registry: every ready-made algorithm builds
// its property graph with its own preprocessing of the raw edges (§5.1 —
// self-loop removal, symmetrization, upper-triangle restriction), so a raw
// edge update cannot be applied verbatim: it must be translated into the
// property-graph mutations that preprocessing implies. The translation of a
// delete on a symmetrized graph needs to know whether the REVERSE raw edge
// still exists — that context comes from the EdgeLookup oracle over the
// post-batch raw edge set, which the serving layer maintains as its
// log-structured master.

// EdgeUpdate is one raw edge mutation (weighted, Del for deletes).
type EdgeUpdate = graphmat.EdgeUpdate

// EdgeLookup reports whether the raw directed edge src→dst exists AFTER the
// batch being applied, and its weight. The serving layer passes its master's
// Lookup (overlay, then a binary search of the base); library callers that
// keep a plain adjacency use NewRawEdgeLookup.
type EdgeLookup = func(src, dst uint32) (float32, bool)

// UpdateResult reports what one translated batch did to a property graph.
type UpdateResult = graphmat.ApplyResult

// updateKind names an algorithm's preprocessing: the recipe applied to the
// raw edges at build time (preprocess) and, equivalently, the translation a
// raw edge update goes through afterwards (translateUpdates).
type updateKind int

const (
	// updDirected: self-loops dropped, directed edges kept as-is
	// (pagerank, ppr, hits, sssp).
	updDirected updateKind = iota
	// updSymmetric: self-loops dropped, edge set symmetrized with original
	// edges taking value precedence over replicated reversals
	// (bfs, components).
	updSymmetric
	// updUpperTriangle: symmetrized then restricted to src < dst
	// (triangles).
	updUpperTriangle
)

// StoreKey names the property graph an algorithm builds from the raw edges:
// its preprocessing (directed, symmetric or upper-triangle) and the traversal
// directions it builds. Two algorithms of one key build the same graph, take
// the same translation of every update batch and can serve from one store, so
// a serving layer keeps one store per key and binds every algorithm of the key
// to it (Spec.Bind). Keys are comparable; String names them stably. The key
// does not yet say whether the stored edges carry weights: every property
// graph stores float32 weights today, so every algorithm of one key can share.
type StoreKey struct {
	kind       updateKind
	directions graphmat.Direction
}

// String names the key: the preprocessing ("directed", "symmetric",
// "upper"), followed by "-both" or "-in" when the key builds other directions
// than the default Out.
func (k StoreKey) String() string {
	name := [...]string{updDirected: "directed", updSymmetric: "symmetric", updUpperTriangle: "upper"}[k.kind]
	switch k.directions {
	case graphmat.Both:
		name += "-both"
	case graphmat.In:
		name += "-in"
	}
	return name
}

// preprocess applies the kind's §5.1 recipe to adj in place: self-loops
// always go; the symmetric kinds then replicate every edge in reverse ("we
// replicate edges ... to obtain a symmetric graph"), original edges taking
// value precedence, and the upper-triangle kind discards the lower triangle
// so the graph is a DAG with every edge u→v satisfying u < v. Symmetrize's
// one sort gives originals that precedence. An adj that is not a graph's
// adjacency is left for graphmat.New to reject: the sort requires every
// entry inside the matrix.
func (k updateKind) preprocess(adj *graphmat.COO[float32]) {
	adj.RemoveSelfLoops()
	if k == updDirected || graphmat.CheckAdjacency(adj) != nil {
		return
	}
	adj.Symmetrize()
	if k == updUpperTriangle {
		adj.UpperTriangle()
	}
}

// translateUpdates maps raw edge updates into the property-graph updates an
// algorithm's preprocessing implies. The lookup must reflect the POST-batch
// raw state; translating every update of a batch against that final state is
// idempotent per key, so repeated keys collapse correctly under the store's
// last-write-wins batch semantics.
func translateUpdates(kind updateKind, batch []EdgeUpdate, lookup EdgeLookup) ([]EdgeUpdate, error) {
	if kind != updDirected && lookup == nil {
		return nil, fmt.Errorf("algorithms: updating a symmetrized property graph requires an edge lookup over the raw edge set")
	}
	out := make([]EdgeUpdate, 0, 2*len(batch))
	for _, u := range batch {
		if u.Src == u.Dst {
			continue // every registry algorithm removes self-loops
		}
		switch kind {
		case updDirected:
			out = append(out, u)
		case updSymmetric:
			wUV, okUV := lookup(u.Src, u.Dst)
			wVU, okVU := lookup(u.Dst, u.Src)
			out = append(out,
				symState(u.Src, u.Dst, wUV, okUV, wVU, okVU),
				symState(u.Dst, u.Src, wVU, okVU, wUV, okUV))
		case updUpperTriangle:
			a, b := min(u.Src, u.Dst), max(u.Src, u.Dst)
			wAB, okAB := lookup(a, b)
			wBA, okBA := lookup(b, a)
			out = append(out, symState(a, b, wAB, okAB, wBA, okBA))
		}
	}
	return out, nil
}

// symState computes the post-batch property edge src→dst of a symmetrized
// graph: present with the forward raw weight if that edge exists, with the
// reverse raw weight if only the reversal does (Symmetrize's keep-first
// precedence — the original edge beats the replicated reversal), deleted
// otherwise.
func symState(src, dst uint32, wOwn float32, okOwn bool, wRev float32, okRev bool) EdgeUpdate {
	switch {
	case okOwn:
		return EdgeUpdate{Src: src, Dst: dst, Val: wOwn}
	case okRev:
		return EdgeUpdate{Src: src, Dst: dst, Val: wRev}
	default:
		return EdgeUpdate{Src: src, Dst: dst, Del: true}
	}
}

// liveGraph is the store-backed half every registry instance embeds: the
// versioned property graph and the key it was built by, implementing the
// Instance interface's update and epoch surface. It is the half instances of
// one key share: Spec.Bind copies it, never the store. A store holds no
// vertex state, so its vertex type parameter is unused (any).
type liveGraph struct {
	store *graphmat.Store[any, float32]
	key   StoreKey
}

// live exposes the shared half of any registry instance to Spec.Bind.
func (l *liveGraph) live() liveGraph { return *l }

// ApplyUpdates translates a raw edge batch through the key's preprocessing
// and applies it to the property graph, publishing a new snapshot epoch. Runs
// in flight keep their pinned epoch. Every instance bound to the store sees
// the batch: apply it through one of them.
func (l *liveGraph) ApplyUpdates(batch []EdgeUpdate, lookup EdgeLookup) (UpdateResult, error) {
	prop, err := translateUpdates(l.key.kind, batch, lookup)
	if err != nil {
		return UpdateResult{}, err
	}
	return l.store.ApplyEdges(prop)
}

// Epoch reports the property graph's current snapshot epoch: the batches
// applied to the store, through any instance bound to it.
func (l *liveGraph) Epoch() uint64 { return l.store.Epoch() }

// StoreStats exposes the underlying store's counters (overlay size,
// compactions, pinned snapshots).
func (l *liveGraph) StoreStats() graphmat.StoreStats { return l.store.Stats() }

// NumVertices reports the property graph's vertex count (fixed across
// epochs).
func (l *liveGraph) NumVertices() uint32 { return l.store.NumVertices() }

// NumEdges reports the current snapshot's property edge count.
func (l *liveGraph) NumEdges() int64 { return l.store.NumEdges() }

// SnapImage captures a persistable GMATSNAP image of the property graph,
// compacting any pending overlay first (the snapshot format carries base
// structures only; the WAL owns whatever landed since).
func (l *liveGraph) SnapImage(tag uint64) (*graphmat.SnapImage, error) {
	return graphmat.StoreImage(l.store, tag)
}

// OnCompact registers the store's persistent-mode hook; see
// graphmat.Store.OnCompact for the constraints on fn.
func (l *liveGraph) OnCompact(fn func(epoch uint64)) { l.store.OnCompact(fn) }

// AcquirePin pins the current property-graph snapshot, transferring
// ownership (and the one-Release obligation) to the caller.
func (l *liveGraph) AcquirePin() Pin {
	return l.store.Acquire()
}

// NewRawEdgeLookup adapts a normalized raw adjacency (row-major sorted,
// deduplicated — graphmat.NormalizeAdjacency) into the EdgeLookup oracle
// ApplyUpdates needs. The adjacency must already reflect the batch being
// applied.
func NewRawEdgeLookup(adj *graphmat.COO[float32]) EdgeLookup {
	return func(src, dst uint32) (float32, bool) {
		return graphmat.LookupEdge(adj, src, dst)
	}
}
