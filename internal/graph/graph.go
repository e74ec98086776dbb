// Package graph provides the edges GraphMat programs run against: a
// partitioned DCSC adjacency structure (paper §4.4.1) with its degrees and
// pending-update overlays, the versioned store that publishes it epoch by
// epoch, preprocessing used to prepare the paper's datasets (§5.1), and
// graph file I/O. Vertex state is not here: every run owns its own
// (core.BlockState), so a published graph is read-only input to any number
// of concurrent runs.
package graph

import (
	"fmt"
	"runtime"

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
	// matrix. Each partition is one task of the engine's multiply phase, so
	// a graph with fewer partitions than a run has workers leaves the rest
	// idle there. The paper's load-balancing recipe (§4.5) is "many more
	// partitions than threads" with dynamic scheduling; 0 means
	// 8 × GOMAXPROCS.
	Partitions int
	// Directions selects which traversal structures to build, once: a
	// graph never builds another, so running a program that scatters along
	// a direction the graph lacks is an error. Zero means Out; bits outside
	// Both are rejected. Building only what an algorithm needs halves memory.
	Directions Direction
	// Workers is the goroutine count for the ingestion pipeline: the
	// counting sort's histogram and scatter chunks, the dedup ranges and the
	// per-partition DCSC builds. 0 means GOMAXPROCS; 1 runs each of them in
	// one piece. Every worker count produces a bit-identical graph — the
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

// Graph is the edge set of a directed graph with edge values of type E: the
// adjacency matrix GraphMat's generalized SpMV multiplies. It is the
// structural half of Graph<V> in the paper's API (appendix); edge values
// generalize the int edge weights used there, and the vertex half is a
// run's own state.
type Graph[E any] struct {
	n uint32
	m int64

	// outParts/inParts are the BASE row partitions of Gᵀ (Row = dst,
	// Col = src — the orientation Algorithm 1 iterates) and of G (Row = src,
	// Col = dst), nil for a direction Options.Directions did not name. With
	// their deltas they are the graph's only copy of the edge set: whatever
	// needs the edges as triples (compaction, Adjacency) materializes them
	// from the layers on demand (see triples) and drops them again.
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

	outDeg, inDeg []uint32

	opts Options
}

// NewFromCOO builds a graph from adjacency triples in the natural
// orientation: Triple.Row = source, Triple.Col = destination. The input is
// consumed — transposed, sorted and deduplicated in place, keeping the first
// value of any duplicate edge — and the graph does not retain it: the
// partitions built from it are the edge set. Self-loops are preserved; use
// COO.RemoveSelfLoops first to follow the paper's preprocessing.
func NewFromCOO[E any](adj *sparse.COO[E], opts Options) (*Graph[E], error) {
	if err := CheckAdjacency(adj); err != nil {
		return nil, err
	}
	if opts.Directions&^Both != 0 {
		return nil, fmt.Errorf("graph: Options.Directions %#x has bits outside Both", int(opts.Directions))
	}
	opts = opts.withDefaults()
	g := &Graph[E]{n: adj.NRows, opts: opts}

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
	return g, nil
}

// CheckAdjacency reports why adj cannot be a graph's adjacency matrix: it is
// not square, or an entry lies outside it. NewFromCOO rejects such an input
// with this error; a caller that sorts adj before building (symmetrization
// does) checks first, because the sort requires every entry inside the matrix.
func CheckAdjacency[E any](adj *sparse.COO[E]) error {
	if adj.NRows != adj.NCols {
		return fmt.Errorf("graph: adjacency matrix must be square, got %dx%d", adj.NRows, adj.NCols)
	}
	return adj.Validate()
}

// build partitions col-major sorted triples at the graph's partition count.
func (g *Graph[E]) build(c *sparse.COO[E]) []*sparse.DCSC[E] {
	return sparse.BuildPartitionedDCSCParallel(c, g.opts.Partitions, g.opts.Workers)
}

// triples materializes the live edge set as the col-major sorted triples of
// one traversal matrix — Gᵀ (Row = dst, Col = src) for Out, G (Row = src,
// Col = dst) for In — exactly the input a fresh build of that direction
// takes. want must be a direction the graph was built with. It walks want's
// layers partition by partition in ascending row range through
// Layered.Columns, and counting-scatters every entry into its column's slot
// range, sized by the degree array the graph maintains exactly. A column's
// entries arrive in ascending row order — across partitions and then within
// each — so the result needs no sort.
func (g *Graph[E]) triples(want Direction) *sparse.COO[E] {
	// Gᵀ's columns are sources, so its column counts are the out-degrees.
	colDeg, parts, deltas := g.outDeg, g.outParts, g.outDelta
	if want == In {
		colDeg, parts, deltas = g.inDeg, g.inParts, g.inDelta
	}
	next := make([]int, g.n) // next free slot of each column
	slot := 0
	for c, d := range colDeg {
		next[c] = slot
		slot += int(d)
	}
	entries := make([]sparse.Triple[E], g.m)
	for _, l := range zipLayers(parts, deltas) {
		l.Columns(func(col uint32, rows []uint32, vals []E) {
			at := next[col]
			for i, r := range rows {
				entries[at+i] = sparse.Triple[E]{Row: r, Col: col, Val: vals[i]}
			}
			next[col] = at + len(rows)
		})
	}
	return &sparse.COO[E]{NRows: g.n, NCols: g.n, Entries: entries}
}

// NumVertices returns the number of vertices.
func (g *Graph[E]) NumVertices() uint32 { return g.n }

// NumEdges returns the number of (deduplicated) directed edges.
func (g *Graph[E]) NumEdges() int64 { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph[E]) OutDegree(v uint32) uint32 { return g.outDeg[v] }

// InDegree returns the in-degree of v.
func (g *Graph[E]) InDegree(v uint32) uint32 { return g.inDeg[v] }

// OutDegrees returns the out-degree array indexed by vertex.
func (g *Graph[E]) OutDegrees() []uint32 { return g.outDeg }

// InDegrees returns the in-degree array indexed by vertex.
func (g *Graph[E]) InDegrees() []uint32 { return g.inDeg }

// OutLayers returns the out-edge traversal structure — the row partitions
// of Gᵀ — as base+delta pairs: the view the engine's column walks iterate.
// Partitions without pending mutations have a nil Delta. It is nil when the
// graph was built without Direction Out.
func (g *Graph[E]) OutLayers() []sparse.Layered[E] {
	return zipLayers(g.outParts, g.outDelta)
}

// InLayers returns the in-edge traversal structure — the row partitions of
// G — as base+delta pairs; nil when the graph was built without Direction In.
func (g *Graph[E]) InLayers() []sparse.Layered[E] {
	return zipLayers(g.inParts, g.inDelta)
}

func zipLayers[E any](parts, deltas []*sparse.DCSC[E]) []sparse.Layered[E] {
	if parts == nil {
		return nil
	}
	layers := make([]sparse.Layered[E], len(parts))
	for i, p := range parts {
		layers[i] = sparse.Layered[E]{Base: p}
		if deltas != nil {
			layers[i].Delta = deltas[i]
		}
	}
	return layers
}

// OverlayNNZ reports the delta overlay's storage cost in entries (0 on a
// fully compacted graph).
func (g *Graph[E]) OverlayNNZ() int64 { return g.overlayNNZ }

// Adjacency returns the live forward adjacency (Row = src, Col = dst),
// row-major sorted, as a fresh copy: the overlay of a graph carrying updates
// is materialized in. Baseline engines use it to build their own structures.
func (g *Graph[E]) Adjacency() *sparse.COO[E] {
	if g.opts.Directions&Out == 0 {
		adj := g.triples(In) // sorted by (dst, src)
		adj.SortRowMajorParallel(g.opts.Workers)
		return adj
	}
	adj := g.triples(Out) // sorted by (src, dst)
	adj.Transpose()
	return adj
}
