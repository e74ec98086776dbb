// Package distributed simulates the multi-node GraphMat the paper's
// conclusion projects ("Given that GraphMat is based on SPMV, we expect it
// to scale well to multiple nodes"; the authors' follow-up system, GraphPad,
// built exactly this). The cluster partitions vertices 1-D across simulated
// nodes; each node owns a contiguous vertex range, the matrix rows for that
// range, and its vertices' properties. A superstep is:
//
//  1. every node runs SendMessage over its active owned vertices, producing
//     a local message fragment;
//  2. an all-gather exchanges fragments — the simulated network copies every
//     fragment to every peer and tallies the bytes that would cross the
//     wire;
//  3. every node runs the generalized SpMV of its row block against the
//     assembled global message vector;
//  4. every node applies reduced values to its owned vertices and
//     re-activates the changed ones.
//
// Nodes execute concurrently (one goroutine each) with barriers between
// phases, exactly the BSP structure an MPI implementation would have. The
// same core.Program runs unchanged on a Cluster and on the single-node
// engine, and produces identical results — the portability argument of the
// paper's §5.3 ("sparse matrix problems are routinely solved on very large
// and diverse systems").
package distributed

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"graphmat/internal/bitvec"
	"graphmat/internal/core"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// Stats reports one distributed run.
type Stats struct {
	// Supersteps is the number of BSP supersteps executed.
	Supersteps int
	// MessagesOnWire counts (vertex, message) pairs shipped between
	// distinct nodes across all supersteps.
	MessagesOnWire int64
	// BytesOnWire estimates the network traffic: wire messages times the
	// per-entry payload (4-byte vertex id + message size).
	BytesOnWire int64
	// EdgesProcessed counts ProcessMessage invocations cluster-wide.
	EdgesProcessed int64
	// PushSupersteps and PullSupersteps count supersteps executed with each
	// kernel of the shared core dispatch layer (direction optimization
	// applies cluster-wide: all nodes run the same mode each superstep, as
	// an MPI implementation would agree on it at the barrier).
	PushSupersteps int64
	// PullSupersteps counts supersteps executed with the pull kernel.
	PullSupersteps int64
}

// node is one simulated machine.
type node[V, E any] struct {
	id     int
	lo, hi uint32 // owned vertex range
	parts  []*sparse.DCSC[E]
	props  []V // full-length slice; only [lo,hi) is authoritative here
	active *bitvec.Vector
}

// Cluster is a set of simulated nodes holding a partitioned graph.
type Cluster[V, E any] struct {
	n       uint32
	nodes   []*node[V, E]
	bounds  []uint32
	msgSize int64
	// colDeg is the per-column nonzero count of the distributed Gᵀ (the
	// vertices' out-degrees); costs carries the structure-side quantities of
	// the per-superstep direction-optimization decision, summed over every
	// node's partitions.
	colDeg []uint32
	costs  core.KernelCosts
}

// fragment is one node's outgoing messages for a superstep.
type fragment[M any] struct {
	ids  []uint32
	msgs []M
}

// NewCluster distributes adjacency triples (Row = src, Col = dst) over
// nnodes simulated nodes, balancing owned vertices by in-edge count (each
// node's SpMV work). partsPerNode subdivides each node's block for its local
// worker parallelism (1 = one partition per node). The input is consumed.
func NewCluster[V, E any](adj *sparse.COO[E], nnodes, partsPerNode int, msgBytes int) (*Cluster[V, E], error) {
	if adj.NRows != adj.NCols {
		return nil, fmt.Errorf("distributed: adjacency must be square, got %dx%d", adj.NRows, adj.NCols)
	}
	if err := adj.Validate(); err != nil {
		return nil, err
	}
	if nnodes < 1 {
		nnodes = 1
	}
	if partsPerNode < 1 {
		partsPerNode = 1
	}
	n := adj.NRows

	// Gᵀ orientation, like the single-node engine.
	adj.Transpose()
	adj.SortColMajor()
	adj.DedupKeepFirst()

	bounds := sparse.PartitionRows(adj.RowCounts(), nnodes)
	c := &Cluster[V, E]{
		n: n, bounds: bounds, msgSize: int64(msgBytes),
		colDeg: adj.ColCounts(),
	}
	for i := 0; i < nnodes; i++ {
		nd := &node[V, E]{
			id:     i,
			lo:     bounds[i],
			hi:     bounds[i+1],
			props:  make([]V, n),
			active: bitvec.New(int(n)),
		}
		// Subdivide the node's row block for local parallelism.
		sub := sparse.PartitionRows(rangeCounts(adj, nd.lo, nd.hi), partsPerNode)
		for p := 0; p < partsPerNode; p++ {
			lo := nd.lo + sub[p]
			hi := nd.lo + sub[p+1]
			nd.parts = append(nd.parts, sparse.BuildDCSC(adj, lo, hi))
		}
		c.costs = core.AddParts(c.costs, nd.parts)
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// rangeCounts returns per-row entry counts for rows [lo,hi), shifted to
// start at zero.
func rangeCounts[E any](c *sparse.COO[E], lo, hi uint32) []uint32 {
	counts := make([]uint32, hi-lo)
	for _, t := range c.Entries {
		if t.Row >= lo && t.Row < hi {
			counts[t.Row-lo]++
		}
	}
	return counts
}

// NumNodes returns the cluster size.
func (c *Cluster[V, E]) NumNodes() int { return len(c.nodes) }

// NumVertices returns the graph's vertex count.
func (c *Cluster[V, E]) NumVertices() uint32 { return c.n }

// Owner returns the node owning vertex v.
func (c *Cluster[V, E]) Owner(v uint32) int {
	lo, hi := 0, len(c.bounds)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if c.bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// InitProps sets every vertex property on its owning node.
func (c *Cluster[V, E]) InitProps(fn func(v uint32) V) {
	for _, nd := range c.nodes {
		for v := nd.lo; v < nd.hi; v++ {
			nd.props[v] = fn(v)
		}
	}
}

// SetActive marks a vertex active on its owner.
func (c *Cluster[V, E]) SetActive(v uint32) {
	c.nodes[c.Owner(v)].active.Set(v)
}

// SetAllActive marks every vertex active. A node only ever reads its own
// [lo, hi) of its active vector, so filling the whole vector is the same as
// setting the owned range.
func (c *Cluster[V, E]) SetAllActive() {
	for _, nd := range c.nodes {
		nd.active.SetAll()
	}
}

// Prop reads vertex v's property from its owner.
func (c *Cluster[V, E]) Prop(v uint32) V {
	return c.nodes[c.Owner(v)].props[v]
}

// Run executes the program for maxIterations supersteps (<= 0 means until
// no vertex is active cluster-wide) with per-superstep adaptive kernel
// dispatch (core.Auto). Only Direction Out programs are supported (the
// distributed block holds Gᵀ rows; an In-direction run would ship the
// transpose, which this simulation does not build).
func Run[V, E, M, R any, P core.Program[V, E, M, R]](c *Cluster[V, E], p P, maxIterations int) (Stats, error) {
	return RunModeContext[V, E, M, R, P](context.Background(), c, p, maxIterations, core.Auto)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled the
// run stops at the next poll point — between supersteps, or between row-block
// partitions inside a superstep — and returns the stats so far with ctx's
// error. A cancelled superstep may leave vertex properties partially applied;
// the cluster should not be reused for exact results afterwards.
func RunContext[V, E, M, R any, P core.Program[V, E, M, R]](ctx context.Context, c *Cluster[V, E], p P, maxIterations int) (Stats, error) {
	return RunModeContext[V, E, M, R, P](ctx, c, p, maxIterations, core.Auto)
}

// RunMode is Run with an explicit kernel mode: Pull and Push force one
// kernel cluster-wide; Auto resolves per superstep from the frontier's
// out-degree sum — computed over the gathered fragments, exactly the
// aggregate an MPI allreduce would provide — against the matrix's total edge
// count. Every node then runs that superstep's local SpMV through the same
// core.MultiplyPartition dispatch the single-node engine uses, so all modes
// produce bit-identical vertex state.
func RunMode[V, E, M, R any, P core.Program[V, E, M, R]](c *Cluster[V, E], p P, maxIterations int, mode core.Mode) (Stats, error) {
	return RunModeContext[V, E, M, R, P](context.Background(), c, p, maxIterations, mode)
}

// RunModeContext is RunMode with cooperative cancellation (see RunContext).
// Cancellation is polled via an atomic stop flag — set by a watcher goroutine
// when ctx's Done channel fires — at two granularities: once per superstep,
// and once per row-block partition inside the kernel sweep, so a cancel never
// waits for a full multi-partition sweep to finish.
func RunModeContext[V, E, M, R any, P core.Program[V, E, M, R]](ctx context.Context, c *Cluster[V, E], p P, maxIterations int, mode core.Mode) (Stats, error) {
	if p.Direction() != graph.Out {
		return Stats{}, fmt.Errorf("distributed: only Direction Out programs are supported")
	}

	// Translate ctx into the engine's pollable stop-flag idiom. The watcher
	// goroutine exits when the run returns (or when ctx fires), so a
	// Background context costs nothing.
	var stop atomic.Int32
	if done := ctx.Done(); done != nil {
		if ctx.Err() != nil {
			// Already cancelled: set the flag synchronously so the run does
			// no work at all, rather than racing the watcher goroutine.
			stop.Store(1)
		}
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				stop.Store(1)
			case <-finished:
			}
		}()
	}
	if maxIterations <= 0 {
		maxIterations = math.MaxInt
	}
	var stats Stats
	nn := len(c.nodes)
	frags := make([]fragment[M], nn)
	xs := make([]*sparse.Vector[M], nn)
	ys := make([]*sparse.Vector[R], nn)
	for i := range c.nodes {
		xs[i] = sparse.NewVector[M](int(c.n))
		ys[i] = sparse.NewVector[R](int(c.n))
	}

	// Each node's superstep work is one task on the shared scheduler pool:
	// the simulated machines reuse the same persistent workers across
	// supersteps and runs, and the stop flag is polled per task, so a
	// cancel can land between nodes within one phase.
	barrier := func(fn func(nd *node[V, E])) {
		sched.Shared(nn).Run(nn, &stop, func(i, _ int) { fn(c.nodes[i]) })
	}

	for iter := 0; iter < maxIterations; iter++ {
		if stop.Load() != 0 {
			return stats, ctx.Err()
		}
		stats.Supersteps++

		// Phase 1: local SendMessage fragments.
		barrier(func(nd *node[V, E]) {
			f := &frags[nd.id]
			f.ids = f.ids[:0]
			f.msgs = f.msgs[:0]
			nd.active.IterateRange(nd.lo, nd.hi, func(v uint32) {
				if m, ok := p.SendMessage(v, nd.props[v]); ok {
					f.ids = append(f.ids, v)
					f.msgs = append(f.msgs, m)
				}
			})
		})
		totalSent := 0
		var frontierEdges int64
		for i := range frags {
			totalSent += len(frags[i].ids)
			if mode != core.Auto {
				continue // forced modes never read the degree sum
			}
			for _, v := range frags[i].ids {
				frontierEdges += int64(c.colDeg[v])
			}
		}
		if totalSent == 0 {
			break
		}
		stepMode := c.costs.Choose(mode, int64(totalSent), frontierEdges)
		if stepMode == core.Push {
			stats.PushSupersteps++
		} else {
			stats.PullSupersteps++
		}

		// Phase 2: all-gather — every node assembles the global message
		// vector from every fragment. Entries from remote nodes are tallied
		// as wire traffic (an MPI allgatherv would ship exactly those).
		barrier(func(nd *node[V, E]) {
			x := xs[nd.id]
			x.Reset()
			for src := range frags {
				f := &frags[src]
				for k, v := range f.ids {
					x.Set(v, f.msgs[k])
				}
			}
		})
		for src := range frags {
			remote := int64(len(frags[src].ids)) * int64(nn-1)
			stats.MessagesOnWire += remote
			stats.BytesOnWire += remote * (4 + c.msgSize)
		}

		// Phase 3: local SpMV of each node's row block through the shared
		// kernel dispatch; Phase 4: apply.
		var edges, active int64
		var mu sync.Mutex
		barrier(func(nd *node[V, E]) {
			x := xs[nd.id]
			y := ys[nd.id]
			y.Reset()
			var localEdges int64
			for _, part := range nd.parts {
				if stop.Load() != 0 {
					break
				}
				e, _ := core.MultiplyPartition(stepMode, part, x, nd.props, p, y)
				localEdges += e
			}
			nd.active.Reset()
			var localActive int64
			y.IterateRange(nd.lo, nd.hi, func(v uint32, r R) {
				if p.Apply(r, v, &nd.props[v]) {
					nd.active.Set(v)
					localActive++
				}
			})
			mu.Lock()
			edges += localEdges
			active += localActive
			mu.Unlock()
		})
		stats.EdgesProcessed += edges
		if stop.Load() != 0 {
			// A cancel mid-sweep leaves this superstep partial; report it as
			// cancelled rather than letting an empty frontier read as done.
			return stats, ctx.Err()
		}
		if active == 0 {
			break
		}
	}
	return stats, nil
}
