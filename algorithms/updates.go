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

// Store is one property graph: the versioned store (graphmat.Store) a
// StoreKey's preprocessing builds from the raw edges. Spec.Bind binds an
// algorithm of the key to it, copying nothing, so a batch applied to the
// Store reaches every algorithm bound to it; runs pin a snapshot (Acquire)
// and never see updates that land under them. A store holds no vertex state.
type Store struct {
	versioned *graphmat.Store[float32]
	key       StoreKey
}

// NewStore builds key's property graph from adjacency triples: the key's
// preprocessing, then the partitioned build of its directions. The input is
// consumed (sorted, deduplicated, possibly symmetrized in place); pass a
// clone to keep the original.
func NewStore(key StoreKey, adj *graphmat.COO[float32], partitions int) (*Store, error) {
	st, err := graphmat.NewStore(adj, key.buildOptions(adj, partitions))
	if err != nil {
		return nil, err
	}
	return &Store{versioned: st, key: key}, nil
}

// OpenStore rebuilds key's property graph from a snapshot image of it
// (Store.SnapImage) without re-running the preprocessing or any partition
// construction — the instant-restart path. Results are bit-identical to a
// store NewStore built from the original input; the snapshot differential
// suite asserts it for every registered algorithm.
func OpenStore(key StoreKey, img *graphmat.SnapImage) (*Store, error) {
	st, err := graphmat.NewStoreFromImage[any](img)
	if err != nil {
		return nil, err
	}
	return &Store{versioned: st, key: key}, nil
}

// buildOptions applies the key's preprocessing to adj in place and returns
// the options of the graph build over it.
func (k StoreKey) buildOptions(adj *graphmat.COO[float32], partitions int) graphmat.Options {
	k.kind.preprocess(adj)
	return graphmat.Options{Partitions: partitions, Directions: k.directions}
}

// Key reports the key the store was built or opened by.
func (s *Store) Key() StoreKey { return s.key }

// Acquire pins the current snapshot and hands ownership to the caller:
// exactly one Release per pin.
func (s *Store) Acquire() Pin { return s.versioned.Acquire() }

// ApplyUpdates translates a raw edge batch through the key's preprocessing
// and applies it to the property graph, publishing a new snapshot epoch. Runs
// in flight keep their pinned epoch. lookup must reflect the raw edge set
// AFTER the batch; keys whose preprocessing keeps edges directed ignore it
// and accept nil.
func (s *Store) ApplyUpdates(batch []EdgeUpdate, lookup EdgeLookup) (UpdateResult, error) {
	prop, err := translateUpdates(s.key.kind, batch, lookup)
	if err != nil {
		return UpdateResult{}, err
	}
	return s.versioned.ApplyEdges(prop)
}

// Epoch reports the current snapshot epoch: the update batches applied to
// the store.
func (s *Store) Epoch() uint64 { return s.versioned.Epoch() }

// Stats exposes the versioned store's counters (overlay size, compactions,
// pinned snapshots).
func (s *Store) Stats() graphmat.StoreStats { return s.versioned.Stats() }

// NumVertices reports the property graph's vertex count (fixed across
// epochs).
func (s *Store) NumVertices() uint32 { return s.versioned.NumVertices() }

// NumEdges reports the current snapshot's property edge count.
func (s *Store) NumEdges() int64 { return s.versioned.NumEdges() }

// SnapImage captures a persistable GMATSNAP image of the property graph,
// compacting any pending overlay first (the format carries base structures
// only). tag is a caller's consistency mark, stored verbatim.
func (s *Store) SnapImage(tag uint64) (*graphmat.SnapImage, error) {
	return graphmat.StoreImage(s.versioned, tag)
}

// OnCompact registers the store's persistent-mode hook; see
// graphmat.Store.OnCompact for when fn runs and its constraints.
func (s *Store) OnCompact(fn func(epoch uint64)) { s.versioned.OnCompact(fn) }

// NewRawEdgeLookup adapts a normalized raw adjacency (row-major sorted,
// deduplicated — graphmat.NormalizeAdjacency) into the EdgeLookup oracle
// ApplyUpdates needs. The adjacency must already reflect the batch being
// applied.
func NewRawEdgeLookup(adj *graphmat.COO[float32]) EdgeLookup {
	return func(src, dst uint32) (float32, bool) {
		return graphmat.LookupEdge(adj, src, dst)
	}
}
