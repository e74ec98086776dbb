package core

import (
	"context"
	"fmt"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// SpMV exposes one generalized multiplication y = Gᵀ ⊗ x outside the driver
// loop: used by tests and by callers that want a single traversal step (the
// in-degree example of Figure 1). st is the one-column vertex state whose
// destination properties ProcessMessage reads. The result vector maps
// destination vertex to reduced value. It is SpMVContext without a context,
// so its possible errors are a direction g was built without and a state
// that does not fit, which it panics with.
func SpMV[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[E], x *sparse.Vector[M], p P, st *BlockState[V], cfg Config) *sparse.Vector[R] {
	y, err := SpMVContext[V, E, M, R, P](context.Background(), g, x, p, st, cfg)
	if err != nil {
		panic(err) //lint:graphmat bannedcalls SpMV has no error result; raised once, before any work
	}
	return y
}

// SpMVContext is the single-shot generalized SpMV as a full citizen of the
// engine configuration: it plans and multiplies exactly as one superstep of
// the loop does (planRun + multiplyPhase) — every direction p.Direction()
// names, cfg.Mode selecting pull, push, or the per-call Auto density decision
// — and ctx cancellation aborts the partition loop cooperatively through
// the same stop flag the engine polls. It multiplies with the inlined
// kernels whatever cfg.Dispatch says (the boxed dispatches are front-ends of
// the superstep loop), so no Config is an error. A direction p names that g
// was built without is, with a nil y, before any work, and so is a state
// that is not one column over g's vertices; the only other error is ctx's,
// returned alongside the partial y of a canceled call.
func SpMVContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[E], x *sparse.Vector[M], p P, st *BlockState[V], cfg Config,
) (*sparse.Vector[R], error) {
	if err := checkDirections(g, p.Direction()); err != nil {
		return nil, err
	}
	if st.n != int(g.NumVertices()) || st.k != 1 {
		return nil, fmt.Errorf("core: SpMV takes a one-column state over %d vertices, got %d×%d", g.NumVertices(), st.n, st.k)
	}
	cfg = cfg.withDefaults()
	ctrl, release := newController(ctx, runOptions{})
	defer release()

	rp := planRun(g, p.Direction(), cfg, false)
	// Under Auto, the frontier's edge work: what the loop's send phase
	// tallies per sender, summed here over a frontier that arrives built.
	var work int64
	if rp.sendDegs != nil {
		x.Mask().Iterate(func(v uint32) { work += int64(rp.sendDegs[v]) })
	}
	mode := rp.costs.Choose(cfg.Mode, int64(x.NNZ()), work)

	y := sparse.NewVector[R](int(g.NumVertices()))
	locals := make([]localStats, cfg.Threads)
	rp.multiplyPhase(cfg.exec(nil), ctrl.flag(), mode, x.Mask().Words(), scalarSink(p, x, st.props, y), nil, locals)
	if r, ok := ctrl.stopped(); ok {
		return y, r.err()
	}
	return y, nil
}
