package core

import (
	"context"
	"fmt"

	"graphmat/internal/graph"
)

// This file is the multi-source entry point of the engine: the scalar
// engine's three phases — SendMessage, generalized multiply, Apply — run by
// the same front-end (runPhases, engine.go) over an n×k block of independent
// source columns sharing one traversal of the adjacency structure per
// superstep. Vertex state lives in a BlockState, not the graph, so a block
// run never disturbs the graph's scalar props/active and can share a pinned
// snapshot with scalar runs. Width selects the fold sink — the k-wide block
// sinks for two or more columns, the scalar sinks for one, which has nothing
// to share a traversal with (blockSink) — and the shape of a frontier row
// (nextRow), nothing else.
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
// Every width runs the scalar engine's send and apply over st and ws. A
// one-column run (st.Width() == 1) folds through the scalar engine's sinks,
// flat fold included, and reports the scalar engine's Stats field for field;
// two or more columns fold through the k-wide block sinks, whose
// Stats.FlatEdges is 0. Either way a FirstMessageFinal program's dense Pull
// supersteps gather by destination row (Stats.RowSupersteps): the k-wide
// gather scans a row once for all the columns still unsettled in it, chosen
// by the same per-superstep test with both sides billed per (vertex, column).
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
	return runPhases(g, p, cfg, ctrl, st, ws.x, ws.y, blockSink(p, ws.x, st.props, ws.y))
}
