package core

import (
	"context"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// SpMV exposes one generalized multiplication y = Gᵀ ⊗ x outside the driver
// loop: used by tests and by callers that want a single traversal step (the
// in-degree example of Figure 1). The result vector maps destination vertex
// to reduced value. It is SpMVContext without a context; the result is nil
// when cfg is rejected.
func SpMV[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], x *sparse.Vector[M], p P, cfg Config) *sparse.Vector[R] {
	y, _ := SpMVContext[V, E, M, R, P](context.Background(), g, x, p, cfg)
	return y
}

// SpMVContext is the single-shot generalized SpMV as a full citizen of the
// engine configuration: it plans and multiplies exactly as one superstep of
// the loop does (planRun + multiplyPhase) — every direction p.Direction()
// names, cfg.Mode selecting pull, push, or the per-call Auto density decision
// — and ctx cancellation aborts the partition loop cooperatively through
// the same stop flag the engine polls. A canceled call returns the partial
// y alongside ctx.Err(). A configuration with no code path (Vector: Sorted with
// Inlined dispatch, see Config.Vector) returns a nil vector and an error.
func SpMVContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[V, E], x *sparse.Vector[M], p P, cfg Config,
) (*sparse.Vector[R], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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
	rp.multiplyPhase(cfg.exec(nil), ctrl.flag(), mode, x.Mask().Words(), scalarSink(p, x, g.Props(), y), nil, locals)
	if r, ok := ctrl.stopped(); ok {
		return y, r.err()
	}
	return y, nil
}
