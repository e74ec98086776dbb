package bench

import (
	"context"

	"graphmat"
	"graphmat/algorithms"
)

// prVertexAlias keeps the Figure 7 graph declaration readable.
type prVertexAlias = algorithms.PRVertex

// must unwraps an experiment's GraphMat run. The runs are uncancellable and
// allocate their own scratch, so the only possible error is an engine
// configuration the experiment itself got wrong.
func must[T any](out T, stats graphmat.Stats, err error) (T, graphmat.Stats) {
	if err != nil {
		panic(err)
	}
	return out, stats
}

// runPageRankAblation executes one fixed-iteration PageRank under an
// explicit engine configuration (the Figure 7 steps).
func runPageRankAblation(g *graphmat.Graph[algorithms.PRVertex, float32], iters int, cfg graphmat.Config) {
	must(algorithms.RunPageRank(context.Background(), g, algorithms.WithConfig(cfg), algorithms.WithIterations(iters)))
}

// runSSSPAblation executes one SSSP under an explicit engine configuration.
func runSSSPAblation(g *graphmat.Graph[float32, float32], root uint32, cfg graphmat.Config) {
	must(algorithms.RunSSSP(context.Background(), g, root, algorithms.WithConfig(cfg)))
}
