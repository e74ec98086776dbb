package core

import (
	"context"
	"fmt"
	"math/bits"

	"graphmat/internal/graph"
)

// This file is the multi-source front-end of the superstep loop (driver.run,
// engine.go): the same three phases as runScalar — SendMessage, generalized
// multiply, Apply — widened to an n×k block of independent source columns
// sharing one traversal of the adjacency structure per superstep. Vertex
// state lives in a BlockState, not the graph, so a block run never disturbs
// the graph's scalar props/active and can share a pinned snapshot with
// scalar runs. One column has nothing to share a traversal with: a k = 1
// run IS runScalar, over the block state's and workspace's own arrays.
//
// Convergence is per column and structural: a source column whose vertices
// all go inactive simply stops contributing frontier bits, so it drops out of
// the sweep at zero cost while the remaining columns keep iterating. The run
// ends when no column has active vertices.

// RunBlock executes program p over k source columns until every column
// converges or the iteration cap. It is RunBlockContext without a context.
func RunBlock[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	g *graph.Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R],
) (Stats, error) {
	return RunBlockContext[V, E, M, R, P](context.Background(), g, p, st, cfg, ws)
}

// RunBlockContext executes program p on graph g over the k source columns
// of st, under ctx: the multi-source analogue of RunContext. st carries the
// per-(vertex, column) properties and active set — initialize per-column
// starting state there before the call; after it, extract per-column results
// with BlockState.Columns. ws, when non-nil, is caller-managed scratch (must
// match g's vertex count and st's width); nil allocates fresh scratch.
//
// A one-column run (st.Width() == 1) executes the scalar engine's phases —
// its sinks, flat fold included, its send and apply — over st and ws, and
// reports the scalar engine's Stats field for field; two or more columns run
// the k-wide block sinks, whose Stats.FlatEdges is 0. Either way a
// FirstMessageFinal program's dense Pull supersteps gather by destination
// row (Stats.RowSupersteps): the k-wide gather scans a row once for all the
// columns still unsettled in it, chosen by the same per-superstep test with
// both sides billed per (vertex, column).
//
// The block path always runs the optimized configuration: bitvector-style
// occupancy and inlined dispatch. Config.Vector and Config.Dispatch are
// ignored — the Figure 7 ablation (sorted message vector, boxed callbacks)
// is a scalar-engine path (boxed.go).
// Mode (Auto/Pull/Push), Threads, Schedule, MaxIterations, observers and
// cancellation are the shared superstep loop's (driver.run), so they behave
// as documented on RunContext; the one difference is that Auto bills the
// push probe cost per distinct sender vertex, not per (vertex, column)
// message.
//
// p must declare DstIndependent: one traversal of an edge serves every
// column's own destination. The block sinks fold with p's ProcessMessage
// (given the zero V, as the scalar fold gives such a program) and Reduce in
// the scalar engine's order, so the results are bit-identical per column to
// scalar runs of p from each column's starting state alone.
func RunBlockContext[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	ctx context.Context, g *graph.Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts ...RunOption,
) (Stats, error) {
	cfg = cfg.withDefaults()
	n := int(g.NumVertices())
	if st == nil {
		return Stats{}, fmt.Errorf("core: block run requires a BlockState")
	}
	if st.n != n {
		return Stats{}, fmt.Errorf("core: block state sized for %d vertices, graph has %d", st.n, n)
	}
	k := st.k
	if ws == nil {
		ws = NewBlockWorkspace[M, R](n, k)
	} else if err := ws.Check(n, k); err != nil {
		return Stats{}, err
	}
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	ctrl, release := newController(ctx, ro)
	defer release()
	return runBlock(g, p, st, cfg, ws, ctrl)
}

// runBlock is the block engine's front-end: n×k message and reduction
// blocks, the k-wide fold sinks, vertex state in bst. This is the one place
// a run's width selects code.
func runBlock[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	g *graph.Graph[V, E], p P, bst *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], ctrl *controller,
) (Stats, error) {
	k := bst.k
	props := bst.props
	if k == 1 {
		return runScalar(g, p, cfg, ctrl, props, bst.summary, ws.x.scalar, ws.y.scalar)
	}
	d := newDriver(cfg, ctrl, int(g.NumVertices()))

	x, y := ws.x, ws.y
	xw := x.summary.Words()
	sink := blockSink(p, x, props, y)
	rows, _ := sink.(rowSink[E])
	// Auto and row-walk accounting, as in runScalar, per (vertex, column): a
	// sender's edge work counts once per live column — the block multiply
	// really does fold each of its edges that many times — and a vertex's
	// row counts as unsettled once per column still waiting in it.
	rp := planRun(g, p.Direction(), cfg, rows != nil)
	sendDegs, recvDegs := rp.sendDegs, rp.recvDegs
	settling, _ := any(p).(FirstMessageFinal[V]) // non-nil whenever recvDegs is
	active, actCols := bst.summary, bst.active

	// SendMessage per active (vertex, column) pair builds the n×k message
	// block.
	send := d.overChunks(func(lo, hi uint32, st *localStats) {
		active.IterateRange(lo, hi, func(v uint32) {
			am := actCols[v]
			for m := am; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				if msg, ok := p.SendMessage(v, props[int(v)*k+s]); ok {
					x.Set(v, s, msg)
					if sendDegs != nil {
						st.degSum += int64(sendDegs[v])
					}
				}
			}
		})
	})
	ps := phaseSet{
		active: active, mode: cfg.Mode, costs: rp.costs,
		send: func() (int64, int64) {
			x.Reset()
			send()
			senders, sent := x.Occupancy()
			return int64(sent), int64(senders)
		},
		// The SpMM: runScalar's walks over the block frontier's vertex
		// summary, folding k-wide into y.
		multiply: func(mode Mode, rowWalk bool) {
			y.Reset()
			var gather rowSink[E] // nil: the column walk of mode
			if rowWalk {
				gather = rows
			}
			rp.multiplyPhase(d.ex, d.stop, mode, xw, sink, gather, d.locals)
		},
		// Apply per received (vertex, column) pair, rebuilding the active
		// block.
		apply: d.overChunks(func(lo, hi uint32, st *localStats) {
			ysum := y.summary
			ycols := y.cols
			ysum.IterateRange(lo, hi, func(v uint32) {
				ym := ycols[v]
				yrow := y.vals[int(v)*k : int(v)*k+k]
				prow := props[int(v)*k : int(v)*k+k]
				var am uint64
				for m := ym; m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m)
					st.applies++
					if p.Apply(yrow[s], v, &prow[s]) {
						am |= 1 << uint(s)
						// As in runScalar: an activated pair that is settled
						// now was settled by this Apply.
						if recvDegs != nil && !settling.Unsettled(prow[s]) {
							st.settled += int64(recvDegs[v])
						}
					}
				}
				if am != 0 {
					active.Words()[v>>6] |= uint64(1) << (v & 63)
					actCols[v] = am
				}
			})
		}),
	}
	if recvDegs != nil {
		ps.unsettledEdges = func() int64 {
			return d.sumChunks(func(lo, hi uint32) (deg int64) {
				for v := lo; v < hi; v++ {
					waiting := waitingCols(settling, props[int(v)*k:int(v)*k+k])
					deg += int64(bits.OnesCount64(waiting)) * int64(recvDegs[v])
				}
				return deg
			})
		}
	}
	return d.run(ps)
}
