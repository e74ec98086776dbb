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

	// outParts/inParts are the BASE row partitions of Gᵀ (Row = dst,
	// Col = src — the orientation Algorithm 1 iterates) and of G (Row = src,
	// Col = dst). With their deltas they are the graph's only copy of the
	// edge set: whatever needs the edges as triples (compaction, Repartition,
	// Adjacency, a lazily requested direction) materializes them from the
	// layers on demand (see triples) and drops them again.
	outParts []*sparse.DCSC[E]
	inParts  []*sparse.DCSC[E]

	// outDelta/inDelta are per-partition whole-column overrides holding the
	// live edge set's divergence from the base partitions; nil (or nil per
	// entry) when a partition has no pending mutations. They are produced by
	// applyBatch and folded back into the base by compaction.
	outDelta, inDelta []*sparse.DCSC[E]
	// overlayNNZ is the overlay's storage cost in entries across both
	// directions — the compaction trigger input.
	overlayNNZ int64
	// pendingUpdates counts the normalized mutations applied since the base
	// partitions were built: carried down the epoch chain by applyBatch,
	// zeroed by compaction.
	pendingUpdates int
	// epoch numbers the live edge-set version; 0 is the as-built graph and
	// every applied batch increments it. Compaction changes the
	// representation, not the edge set, so it keeps the epoch.
	epoch uint64

	props  []V
	active *bitvec.Vector

	outDeg, inDeg []uint32

	opts Options
}

// NewFromCOO builds a graph from adjacency triples in the natural
// orientation: Triple.Row = source, Triple.Col = destination. The input is
// consumed — transposed, sorted and deduplicated in place, keeping the first
// value of any duplicate edge — and the graph does not retain it: the
// partitions built from it are the edge set. Self-loops are preserved; use
// COO.RemoveSelfLoops first to follow the paper's preprocessing.
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
	g.m = int64(len(adj.Entries))

	g.outDeg = adj.ColCounts()
	g.inDeg = adj.RowCounts()

	if opts.Directions&Out != 0 {
		g.outParts = g.build(adj)
	}
	if opts.Directions&In != 0 {
		// Back to G: row = src, col = dst.
		adj.Transpose()
		adj.SortColMajorParallel(opts.Workers)
		g.inParts = g.build(adj)
	}

	g.props = make([]V, g.n)
	g.active = bitvec.New(int(g.n))
	return g, nil
}

// build partitions col-major sorted triples at the graph's partition count.
func (g *Graph[V, E]) build(c *sparse.COO[E]) []*sparse.DCSC[E] {
	return sparse.BuildPartitionedDCSCParallel(c, g.opts.Partitions, g.opts.Workers)
}

// triples materializes the live edge set as the col-major sorted triples of
// one traversal matrix — Gᵀ (Row = dst, Col = src) for Out, G (Row = src,
// Col = dst) for In — exactly the input a fresh build of that direction
// takes. It walks the layers of a direction the graph was BUILT with (want's
// own when Options.Directions has it, the other otherwise: those structures
// are immutable, unlike lazily built extras), partition by partition in
// ascending row range through Layered.Columns, and counting-scatters every
// entry into its column's slot range, sized by the degree array the graph
// maintains exactly. A column's entries arrive in ascending row order either
// way — across partitions and then within each when the walk is want's own,
// in the walked partition's column order when it is the transpose — so the
// result needs no sort.
func (g *Graph[V, E]) triples(want Direction) *sparse.COO[E] {
	colDeg := g.outDeg // the column counts of Gᵀ
	if want == In {
		colDeg = g.inDeg
	}
	next := make([]int, g.n) // next free slot of each column
	slot := 0
	for c, d := range colDeg {
		next[c] = slot
		slot += int(d)
	}
	walked := want
	if g.opts.Directions&want == 0 {
		walked = g.opts.Directions
	}
	parts, deltas := g.outParts, g.outDelta
	if walked == In {
		parts, deltas = g.inParts, g.inDelta
	}
	entries := make([]sparse.Triple[E], g.m)
	place := func(col uint32, rows []uint32, vals []E) {
		at := next[col]
		for i, r := range rows {
			entries[at+i] = sparse.Triple[E]{Row: r, Col: col, Val: vals[i]}
		}
		next[col] = at + len(rows)
	}
	if walked != want {
		// The walked matrix is want's transpose: its rows are want's columns.
		place = func(col uint32, rows []uint32, vals []E) {
			for i, r := range rows {
				entries[next[r]] = sparse.Triple[E]{Row: col, Col: r, Val: vals[i]}
				next[r]++
			}
		}
	}
	for _, l := range zipLayers(parts, deltas) {
		l.Columns(place)
	}
	return &sparse.COO[E]{NRows: g.n, NCols: g.n, Entries: entries}
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

// OutPartitions returns the BASE row partitions of Gᵀ (out-edge scatter).
// On a graph carrying live updates the base excludes the overlay; kernels
// and materializers use OutLayers, which pairs each base partition with its
// delta. A graph constructed without Direction Out builds them on first use
// from the live edge set, so that base is current and carries no delta.
func (g *Graph[V, E]) OutPartitions() []*sparse.DCSC[E] {
	if g.outParts == nil {
		g.outParts = g.build(g.triples(Out))
	}
	return g.outParts
}

// InPartitions returns the BASE row partitions of G (in-edge scatter),
// building them on first use — from the live edge set, like OutPartitions —
// if the graph was constructed without Direction In.
func (g *Graph[V, E]) InPartitions() []*sparse.DCSC[E] {
	if g.inParts == nil {
		g.inParts = g.build(g.triples(In))
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

// Partitions returns the current partition count.
func (g *Graph[V, E]) Partitions() int { return g.opts.Partitions }

// Repartition rebuilds the traversal structures with a new partition count.
// The Figure 7 ablation uses this to compare partitions=threads (static)
// against partitions=8×threads (dynamic load balancing). Every direction
// that exists is rebuilt from the live edge set, so a graph carrying live
// updates comes out with its overlay folded in. Repartition mutates the
// receiver: it is for single-owner graphs, never published store snapshots.
func (g *Graph[V, E]) Repartition(nparts int) {
	var out, in *sparse.COO[E]
	if g.outParts != nil {
		out = g.triples(Out)
	}
	if g.inParts != nil {
		in = g.triples(In)
	}
	g.opts.Partitions = max(nparts, 1)
	g.outDelta, g.inDelta = nil, nil
	g.overlayNNZ, g.pendingUpdates = 0, 0
	if out != nil {
		g.outParts = g.build(out)
	}
	if in != nil {
		g.inParts = g.build(in)
	}
}

// Adjacency returns the live forward adjacency (Row = src, Col = dst),
// row-major sorted, as a fresh copy: the overlay of a graph carrying updates
// is materialized in. Baseline engines use it to build their own structures.
func (g *Graph[V, E]) Adjacency() *sparse.COO[E] {
	adj := g.triples(Out) // sorted by (src, dst)
	adj.Transpose()
	return adj
}
