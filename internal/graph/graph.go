// Package graph provides the property graph GraphMat programs run against:
// a partitioned DCSC adjacency structure (paper §4.4.1), a per-vertex
// property array, the active-vertex set (§4.3), preprocessing used to prepare
// the paper's datasets (§5.1), and graph file I/O.
package graph

import (
	"fmt"
	"runtime"

	"graphmat/internal/bitvec"
	"graphmat/internal/sparse"
)

// Direction selects which edges SendMessage scatters along (paper §4.1:
// "SEND_MESSAGE can be called to scatter along in- and/or out- edges").
type Direction int

const (
	// Out scatters a vertex's message to the targets of its out-edges
	// (an SpMV against Gᵀ).
	Out Direction = 1 << iota
	// In scatters a vertex's message to the sources of its in-edges
	// (an SpMV against G).
	In
	// Both scatters along out- and in-edges.
	Both = Out | In
)

// Options configures graph construction.
type Options struct {
	// Partitions is the number of 1-D row partitions of the adjacency
	// matrix. The paper's load-balancing recipe (§4.5) is "many more
	// partitions than threads" with dynamic scheduling; 0 means
	// 8 × GOMAXPROCS.
	Partitions int
	// Directions selects which traversal structures to build. Zero means
	// Out. Building only what an algorithm needs halves memory.
	Directions Direction
	// Workers is the goroutine count for the ingestion pipeline (sorting,
	// dedup and per-partition DCSC builds). 0 means GOMAXPROCS; 1 forces the
	// sequential path. Both paths produce bit-identical graphs — the
	// differential tests assert it — so parallel is the default.
	Workers int
	// CompactFraction is the store's compaction trigger: once the delta
	// overlay's storage cost exceeds this fraction of the base structures'
	// nonzeros, ApplyEdges folds the overlay back into the base through the
	// parallel rebuild pipeline. 0 means DefaultCompactFraction; negative
	// disables automatic compaction (Store.Compact still works).
	CompactFraction float64
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = 8 * runtime.GOMAXPROCS(0)
	}
	if o.Directions == 0 {
		o.Directions = Out
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Graph is a directed property graph with vertex properties of type V and
// edge values of type E. It corresponds to Graph<V> in the paper's API
// (appendix); edge values generalize the int edge weights used there.
type Graph[V, E any] struct {
	n uint32
	m int64

	// fwd holds Gᵀ triples (Row = dst, Col = src), col-major sorted and
	// deduplicated — the orientation Algorithm 1 iterates. Retained so the
	// matrix can be repartitioned (the Figure 7 load-balance ablation).
	fwd *sparse.COO[E]
	// bwd holds G triples (Row = src, Col = dst); built only when Direction
	// In is requested.
	bwd *sparse.COO[E]

	outParts []*sparse.DCSC[E]
	inParts  []*sparse.DCSC[E]

	// outDelta/inDelta are per-partition whole-column overrides holding the
	// live edge set's divergence from the base partitions; nil (or nil per
	// entry) when a partition has no pending mutations. They are produced by
	// applyBatch and folded back into the base by compaction. fwd/bwd and the
	// base partitions describe the BASE edge set; pending records the
	// mutations separating it from the live one.
	outDelta, inDelta []*sparse.DCSC[E]
	// overlayNNZ is the overlay's storage cost in entries across both
	// directions — the compaction trigger input.
	overlayNNZ int64
	// epoch numbers the live edge-set version; 0 is the as-built graph and
	// every applied batch increments it. Compaction changes the
	// representation, not the edge set, so it keeps the epoch.
	epoch uint64
	// log/logLen view the shared append-only mutation log: the first logLen
	// entries are the normalized mutations since the base was built, in
	// application order. They replay onto lazily built traversal structures
	// and materialize the live edge set for compaction. The backing log is
	// shared down the epoch chain (see updateLog); use pending() to read.
	log    *updateLog[E]
	logLen int

	props  []V
	active *bitvec.Vector

	outDeg, inDeg []uint32

	opts Options
}

// NewFromCOO builds a graph from adjacency triples in the natural
// orientation: Triple.Row = source, Triple.Col = destination. The input is
// consumed (sorted and deduplicated in place, keeping the first value of any
// duplicate edge). Self-loops are preserved; use COO.RemoveSelfLoops first to
// follow the paper's preprocessing.
func NewFromCOO[V, E any](adj *sparse.COO[E], opts Options) (*Graph[V, E], error) {
	if adj.NRows != adj.NCols {
		return nil, fmt.Errorf("graph: adjacency matrix must be square, got %dx%d", adj.NRows, adj.NCols)
	}
	if err := adj.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	g := &Graph[V, E]{n: adj.NRows, opts: opts}

	// Reorient to Gᵀ: row = dst, col = src.
	adj.Transpose()
	adj.SortColMajorParallel(opts.Workers)
	adj.DedupKeepFirstParallel(opts.Workers)
	g.fwd = adj
	g.m = int64(len(adj.Entries))

	g.outDeg = adj.ColCounts()
	g.inDeg = adj.RowCounts()

	if opts.Directions&Out != 0 {
		g.outParts = sparse.BuildPartitionedDCSCParallel(g.fwd, opts.Partitions, opts.Workers)
	}
	if opts.Directions&In != 0 {
		g.buildBackward()
	}

	g.props = make([]V, g.n)
	g.active = bitvec.New(int(g.n))
	return g, nil
}

func (g *Graph[V, E]) buildBackward() {
	g.bwd = g.fwd.Clone()
	g.bwd.Transpose()
	g.bwd.SortColMajorParallel(g.opts.Workers)
	g.inParts = sparse.BuildPartitionedDCSCParallel(g.bwd, g.opts.Partitions, g.opts.Workers)
}

// NumVertices returns the number of vertices.
func (g *Graph[V, E]) NumVertices() uint32 { return g.n }

// NumEdges returns the number of (deduplicated) directed edges.
func (g *Graph[V, E]) NumEdges() int64 { return g.m }

// Props exposes the vertex property array; index is the vertex id.
func (g *Graph[V, E]) Props() []V { return g.props }

// Prop returns vertex v's property.
func (g *Graph[V, E]) Prop(v uint32) V { return g.props[v] }

// SetProp sets vertex v's property.
func (g *Graph[V, E]) SetProp(v uint32, p V) { g.props[v] = p }

// SetAllProps sets every vertex property to p (the paper's
// setAllVertexproperty).
func (g *Graph[V, E]) SetAllProps(p V) {
	for i := range g.props {
		g.props[i] = p
	}
}

// InitProps sets each vertex property with a function of the vertex id.
func (g *Graph[V, E]) InitProps(fn func(v uint32) V) {
	for i := range g.props {
		g.props[i] = fn(uint32(i))
	}
}

// Active exposes the active-vertex bitvector (paper §4.3: "the set of active
// vertices is maintained using a boolean array for performance reasons").
func (g *Graph[V, E]) Active() *bitvec.Vector { return g.active }

// SetActive marks vertex v active for the next superstep.
func (g *Graph[V, E]) SetActive(v uint32) { g.active.Set(v) }

// SetAllActive marks every vertex active.
func (g *Graph[V, E]) SetAllActive() { g.active.SetAll() }

// ClearActive deactivates every vertex.
func (g *Graph[V, E]) ClearActive() { g.active.Reset() }

// OutDegree returns the out-degree of v.
func (g *Graph[V, E]) OutDegree(v uint32) uint32 { return g.outDeg[v] }

// InDegree returns the in-degree of v.
func (g *Graph[V, E]) InDegree(v uint32) uint32 { return g.inDeg[v] }

// OutDegrees returns the out-degree array indexed by vertex.
func (g *Graph[V, E]) OutDegrees() []uint32 { return g.outDeg }

// InDegrees returns the in-degree array indexed by vertex.
func (g *Graph[V, E]) InDegrees() []uint32 { return g.inDeg }

// OutPartitions returns the BASE row partitions of Gᵀ (out-edge scatter),
// building them on first use if the graph was constructed without
// Direction Out. On a graph carrying live updates the base excludes the
// overlay; kernels and materializers use OutLayers, which pairs each base
// partition with its delta.
func (g *Graph[V, E]) OutPartitions() []*sparse.DCSC[E] {
	if g.outParts == nil {
		g.outParts = sparse.BuildPartitionedDCSCParallel(g.fwd, g.opts.Partitions, g.opts.Workers)
		if g.logLen > 0 {
			g.outDelta = buildDeltas(g.outParts, nil, fwdMuts(normalizeUpdates(g.pending())), g.opts.Workers)
		}
	}
	return g.outParts
}

// InPartitions returns the BASE row partitions of G (in-edge scatter),
// building them on first use if the graph was constructed without Direction
// In. Like OutPartitions, a lazy build replays the pending mutation log so
// the new direction agrees with the live edge set.
func (g *Graph[V, E]) InPartitions() []*sparse.DCSC[E] {
	if g.inParts == nil {
		g.buildBackward()
		if g.logLen > 0 {
			g.inDelta = buildDeltas(g.inParts, nil, bwdMuts(normalizeUpdates(g.pending())), g.opts.Workers)
		}
	}
	return g.inParts
}

// OutLayers returns the out-edge traversal structure as base+delta pairs —
// the view the engine's column walks iterate. Partitions without pending
// mutations have a nil Delta.
func (g *Graph[V, E]) OutLayers() []sparse.Layered[E] {
	return zipLayers(g.OutPartitions(), g.outDelta)
}

// InLayers returns the in-edge traversal structure as base+delta pairs.
func (g *Graph[V, E]) InLayers() []sparse.Layered[E] {
	return zipLayers(g.InPartitions(), g.inDelta)
}

func zipLayers[E any](parts, deltas []*sparse.DCSC[E]) []sparse.Layered[E] {
	layers := make([]sparse.Layered[E], len(parts))
	for i, p := range parts {
		layers[i] = sparse.Layered[E]{Base: p}
		if deltas != nil {
			layers[i].Delta = deltas[i]
		}
	}
	return layers
}

// Epoch reports the graph's edge-set version: 0 as built, +1 per applied
// update batch.
func (g *Graph[V, E]) Epoch() uint64 { return g.epoch }

// OverlayNNZ reports the delta overlay's storage cost in entries (0 on a
// fully compacted graph).
func (g *Graph[V, E]) OverlayNNZ() int64 { return g.overlayNNZ }

// PendingUpdates reports the number of normalized mutations separating the
// live edge set from the base structures.
func (g *Graph[V, E]) PendingUpdates() int { return g.logLen }

// pending returns this epoch's view of the mutation log (read-only).
func (g *Graph[V, E]) pending() []Update[E] { return g.log.view(g.logLen) }

// Partitions returns the current partition count.
func (g *Graph[V, E]) Partitions() int { return g.opts.Partitions }

// Repartition rebuilds the traversal structures with a new partition count.
// The Figure 7 ablation uses this to compare partitions=threads (static)
// against partitions=8×threads (dynamic load balancing). A graph carrying
// live updates folds its overlay into the triple lists first — materialize
// only, no interim partition build — so the single rebuild below sees the
// live edge set at the new count. Repartition mutates the receiver: it is
// for single-owner graphs, never published store snapshots.
func (g *Graph[V, E]) Repartition(nparts int) {
	if nparts < 1 {
		nparts = 1
	}
	hadOut, hadIn := g.outParts != nil, g.inParts != nil
	if g.logLen > 0 {
		g.fwd = g.materializeFwd()
		g.m = int64(len(g.fwd.Entries))
		g.outDeg = g.fwd.ColCounts()
		g.inDeg = g.fwd.RowCounts()
		g.bwd, g.outParts, g.inParts = nil, nil, nil
		g.outDelta, g.inDelta = nil, nil
		g.log, g.logLen, g.overlayNNZ = nil, 0, 0
	}
	g.opts.Partitions = nparts
	if hadOut {
		g.outParts = sparse.BuildPartitionedDCSCParallel(g.fwd, nparts, g.opts.Workers)
	}
	if hadIn {
		if g.bwd != nil {
			g.inParts = sparse.BuildPartitionedDCSCParallel(g.bwd, nparts, g.opts.Workers)
		} else {
			g.buildBackward()
		}
	}
}

// Adjacency returns a copy of the live forward adjacency (Row = src,
// Col = dst), row-major sorted. Baseline engines use it to build their own
// structures; on a graph carrying updates the overlay is materialized in.
func (g *Graph[V, E]) Adjacency() *sparse.COO[E] {
	adj := g.materializeFwd()
	adj.Transpose()
	adj.SortRowMajorParallel(g.opts.Workers)
	return adj
}
