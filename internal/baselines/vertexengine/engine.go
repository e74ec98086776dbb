// Package vertexengine is the reproduction's stand-in for GraphLab v2.2 in
// the paper's comparisons: a synchronous gather–apply–scatter (GAS) vertex
// engine. It deliberately recreates the architectural properties the paper
// credits for GraphLab's performance profile rather than GraphMat's:
//
//   - per-vertex adjacency lists (slice-of-slices, one indirection per
//     vertex) instead of a streaming compressed matrix;
//   - vertex and gather data passed as interface{} ("boxed"), so user
//     callbacks cannot inline into the edge loops and scalar accumulators
//     allocate;
//   - gather is pull-based over all in-edges of an active vertex, including
//     edges from neighbors that cannot contribute (GraphLab's wasted-work
//     pattern on traversal algorithms);
//   - signaling through an atomically-updated bitset.
//
// The engine is correct and parallel; it is simply built the way a
// general-purpose GAS system is built.
package vertexengine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphmat/internal/bitvec"
	"graphmat/internal/sparse"
)

// EdgeSet selects which incident edges a phase runs over.
type EdgeSet int

const (
	// NoEdges skips the phase entirely.
	NoEdges EdgeSet = iota
	// InEdges runs over edges arriving at the vertex.
	InEdges
	// OutEdges runs over edges leaving the vertex.
	OutEdges
	// AllEdges runs over both.
	AllEdges
)

// Program is a GAS vertex program. Data flows as interface{} exactly like
// GraphLab's type-erased vertex/gather types.
type Program interface {
	// GatherEdges selects the gather phase's edge set.
	GatherEdges() EdgeSet
	// Gather computes one edge's contribution; self is the vertex being
	// updated, other the neighbor across the edge.
	Gather(self uint32, selfData any, other uint32, otherData any, edge float32) any
	// Sum folds two gather contributions (commutative, associative).
	Sum(a, b any) any
	// Apply produces the vertex's new data from the folded gather result
	// (nil when the vertex gathered nothing).
	Apply(v uint32, data any, gathered any) any
	// ScatterEdges selects the scatter phase's edge set.
	ScatterEdges() EdgeSet
	// Scatter inspects an incident edge after apply and reports whether to
	// signal the neighbor for the next superstep.
	Scatter(self uint32, newData any, other uint32, otherData any, edge float32) bool
}

// halfEdge is one directed adjacency entry.
type halfEdge struct {
	nbr uint32
	w   float32
}

// Stats tallies engine work for the Figure 6 counter proxies.
type Stats struct {
	Supersteps int
	Gathers    int64 // gather edge visits
	Applies    int64
	Scatters   int64 // scatter edge visits
	Signals    int64
}

// Engine holds the graph and double-buffered vertex data.
type Engine struct {
	n      uint32
	in     [][]halfEdge
	out    [][]halfEdge
	data   []any
	next   []any
	active *bitvec.Vector
	signal *bitvec.Vector
}

// New builds the engine's adjacency lists from forward triples (Row = src,
// Col = dst). The input is not modified.
func New(adj *sparse.COO[float32]) *Engine {
	n := adj.NRows
	e := &Engine{
		n:      n,
		in:     make([][]halfEdge, n),
		out:    make([][]halfEdge, n),
		data:   make([]any, n),
		next:   make([]any, n),
		active: bitvec.New(int(n)),
		signal: bitvec.New(int(n)),
	}
	for _, t := range adj.Entries {
		e.out[t.Row] = append(e.out[t.Row], halfEdge{nbr: t.Col, w: t.Val})
		e.in[t.Col] = append(e.in[t.Col], halfEdge{nbr: t.Row, w: t.Val})
	}
	return e
}

// Init sets every vertex's data.
func (e *Engine) Init(fn func(v uint32) any) {
	for v := uint32(0); v < e.n; v++ {
		e.data[v] = fn(v)
	}
}

// Data returns vertex v's current data.
func (e *Engine) Data(v uint32) any { return e.data[v] }

// Signal marks a vertex active for the first superstep.
func (e *Engine) Signal(v uint32) { e.active.Set(v) }

// SignalAll marks every vertex active for the first superstep.
func (e *Engine) SignalAll() {
	for v := uint32(0); v < e.n; v++ {
		e.active.Set(v)
	}
}

func edgesFor(set EdgeSet, in, out []halfEdge) ([]halfEdge, []halfEdge) {
	switch set {
	case InEdges:
		return in, nil
	case OutEdges:
		return out, nil
	case AllEdges:
		return in, out
	default:
		return nil, nil
	}
}

// Run executes supersteps until no vertex is signaled or maxSupersteps is
// reached (<= 0 means unbounded). When reactivateAll is set, every vertex is
// signaled at the start of each superstep (GraphLab's "always" scheduling
// used for fixed-iteration algorithms like PageRank and CF).
func (e *Engine) Run(p Program, maxSupersteps, nthreads int, reactivateAll bool) Stats {
	if nthreads <= 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	var stats Stats
	gatherSet := p.GatherEdges()
	scatterSet := p.ScatterEdges()

	for step := 0; maxSupersteps <= 0 || step < maxSupersteps; step++ {
		if reactivateAll {
			for v := uint32(0); v < e.n; v++ {
				e.active.Set(v)
			}
		}
		if !e.active.Any() {
			break
		}
		stats.Supersteps++
		e.signal.Reset()

		var gathers, applies, scatters, signals atomic.Int64
		e.parallelActive(nthreads, func(v uint32) {
			var acc any
			var localGathers int64
			inE, outE := edgesFor(gatherSet, e.in[v], e.out[v])
			for _, lists := range [2][]halfEdge{inE, outE} {
				for _, he := range lists {
					g := p.Gather(v, e.data[v], he.nbr, e.data[he.nbr], he.w)
					localGathers++
					if g == nil {
						continue
					}
					if acc == nil {
						acc = g
					} else {
						acc = p.Sum(acc, g)
					}
				}
			}
			e.next[v] = p.Apply(v, e.data[v], acc)
			gathers.Add(localGathers)
			applies.Add(1)
		})

		// Commit the new data of active vertices, then scatter against the
		// committed state.
		e.parallelActive(nthreads, func(v uint32) {
			e.data[v] = e.next[v]
		})
		if scatterSet != NoEdges {
			e.parallelActive(nthreads, func(v uint32) {
				var localScatters, localSignals int64
				inE, outE := edgesFor(scatterSet, e.in[v], e.out[v])
				for _, lists := range [2][]halfEdge{inE, outE} {
					for _, he := range lists {
						localScatters++
						if p.Scatter(v, e.data[v], he.nbr, e.data[he.nbr], he.w) {
							e.signal.SetAtomic(he.nbr)
							localSignals++
						}
					}
				}
				scatters.Add(localScatters)
				signals.Add(localSignals)
			})
		}

		stats.Gathers += gathers.Load()
		stats.Applies += applies.Load()
		stats.Scatters += scatters.Load()
		stats.Signals += signals.Load()

		e.active, e.signal = e.signal, e.active
	}
	return stats
}

// parallelActive runs fn over every active vertex using nthreads goroutines
// pulling 64-aligned ranges dynamically.
func (e *Engine) parallelActive(nthreads int, fn func(v uint32)) {
	n := int(e.n)
	if nthreads <= 1 || n < 2048 {
		e.active.Iterate(fn)
		return
	}
	const rangeBits = 12 // 4096-vertex ranges
	nranges := (n + (1 << rangeBits) - 1) >> rangeBits
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nthreads)
	for t := 0; t < nthreads; t++ {
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1) - 1)
				if r >= nranges {
					return
				}
				lo := uint32(r << rangeBits)
				hi := uint32((r + 1) << rangeBits)
				if hi > uint32(n) {
					hi = uint32(n)
				}
				e.active.IterateRange(lo, hi, fn)
			}
		}()
	}
	wg.Wait()
}
