package core

import (
	"context"
	"fmt"

	"graphmat/internal/graph"
)

// This file is the engine's one entry body (runColumns): the scalar engine's
// phases — SendMessage, generalized multiply, Apply — run by one front-end
// (runPhases, engine.go) over an n×k block of independent source columns
// sharing one traversal of the adjacency structure per superstep. Only a
// run's first superstep has a send phase; each later superstep's messages
// are sent by the apply phase before it, so a superstep is two phases.
// RunContext is its one-column case over the graph's own vertex state;
// RunBlockContext hands it a BlockState the caller owns, so a block run never
// disturbs the graph's props/active and can share a pinned snapshot with any
// other run. Width selects the fold sink — the k-wide block sinks for two or
// more columns, the scalar sinks for one, which has nothing to share a
// traversal with (blockSink) — and the shape of a frontier row (nextRow),
// nothing else.
//
// Convergence is per column and structural: a source column whose vertices
// all go inactive simply stops contributing frontier bits, so it drops out of
// the sweep at zero cost while the remaining columns keep iterating. The run
// ends when no column has active vertices.

// RunBlockContext executes program p on graph g over the k source columns
// of st, under ctx: the multi-source form of RunContext. st carries the
// per-(vertex, column) properties and active set — initialize per-column
// starting state there before the call; after it, extract per-column results
// with BlockState.Columns. ws, when non-nil, is caller-managed scratch (must
// match g's vertex count and st's width); nil allocates fresh scratch.
//
// Every width runs the scalar engine's send and apply over st and ws. A
// one-column run folds through the scalar engine's sinks, flat fold included,
// and reports the scalar engine's Stats field for field; two or more columns
// fold through the k-wide block sinks, whose Stats.FlatEdges is 0. Either way
// a FirstMessageFinal program's dense Pull supersteps gather by destination
// row (Stats.RowSupersteps): the k-wide gather scans a row once for all the
// columns still unsettled in it, chosen by the same per-superstep test with
// both sides billed per (vertex, column). At two or more columns a program
// that also declares SemiringBoolean folds column masks, not values
// (blockMaskSink): same columns, same frontier tallies.
//
// Config is validated at the run's width: the Figure 7 ablation (boxed
// callbacks, the sorted message vector) is a one-column path, so a
// one-column run with Dispatch Boxed or BoxedSorted runs the boxed front-end
// over st's column, while either at two or more columns is a configuration
// error. A direction p scatters along that g was built without is an error
// too, before any superstep. Mode (Auto/Pull/Push), Threads, MaxIterations,
// observers and cancellation are the shared superstep loop's (driver.run),
// so they behave as documented on RunContext; the one difference is that
// Auto bills the push probe cost per distinct sender vertex, not per
// (vertex, column) message.
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
	if st == nil {
		return Stats{}, fmt.Errorf("core: block run requires a BlockState")
	}
	return runColumns(ctx, g, p, st, cfg, ws, opts)
}

// runColumns is the entry body of every run, RunContext's and
// RunBlockContext's: validate (Config, and that g has every direction p
// scatters along), arm the stop machinery, then run the boxed
// ablation over a one-column state or runPhases over st and ws. p may read
// its destination only when st is one column wide (RunContext); wider
// states come from RunBlockContext, whose signature demands DstIndependent.
func runColumns[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts []RunOption,
) (Stats, error) {
	n := int(g.NumVertices())
	if st.n != n {
		return Stats{}, fmt.Errorf("core: block state sized for %d vertices, graph has %d", st.n, n)
	}
	if err := cfg.validate(st.k); err != nil {
		return Stats{}, err
	}
	if err := checkDirections(g, p.Direction()); err != nil {
		return Stats{}, err
	}
	cfg = cfg.withDefaults()
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	ctrl, release := newController(ctx, ro)
	defer release()
	if cfg.Dispatch != Inlined {
		// The boxed (naive) dispatch path manages its own type-erased
		// scratch and ignores ws.
		return runBoxed(g, p, cfg, ctrl, st)
	}
	if ws == nil {
		ws = NewBlockWorkspace[M, R](n, st.k)
	} else if err := ws.Check(n, st.k); err != nil {
		return Stats{}, err
	}
	return runPhases(g, p, cfg, ctrl, st, ws.x, ws.y, blockSink(p, ws.x, st.props, ws.y))
}
