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
// RunContext hands it the BlockState the caller owns, so a run never writes
// the graph and can share a pinned snapshot with any other run. Width selects the fold sink — the k-wide block sinks for two or
// more columns, the scalar sinks for one, which has nothing to share a
// traversal with (blockSink) — and the shape of a frontier row (nextRow),
// nothing else.
//
// Convergence is per column and structural: a source column whose vertices
// all go inactive simply stops contributing frontier bits, so it drops out of
// the sweep at zero cost while the remaining columns keep iterating. The run
// ends when no column has active vertices.

// runColumns is the entry body of every run: validate (Config, and that g
// has every direction p scatters along), arm the stop machinery, then run
// the boxed ablation over a one-column state or runPhases over st and ws. p
// may read its destination only when st is one column wide; RunContext has
// rejected wider states for any other program.
func runColumns[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts []RunOption,
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
