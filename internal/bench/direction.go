package bench

import (
	"context"
	"fmt"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// DirectionOptimization measures the push-vs-pull-vs-auto kernel ablation in
// the Figure 7 style: the same workloads under explicit engine
// configurations, reported as speedup over the pull baseline (the paper's
// column sweep on every superstep — except that BFS declares
// FirstMessageFinal, so its dense pull supersteps gather by rows under Pull
// and Auto alike). The three workloads bracket the regimes:
//
//   - BFS on the RMAT stand-in: scale-free, low diameter — a few dense
//     supersteps pull, the sparse head and tail push;
//   - BFS on the road-grid stand-in: enormous diameter, every frontier tiny
//     relative to |E| — push's home turf, where pull pays the full
//     column-probe bill hundreds of times;
//   - PageRank on the RMAT stand-in: every vertex active every superstep —
//     pull's home turf; Auto must not lose it.
func DirectionOptimization(o Options) *Table {
	o = o.withDefaults()
	scale := 14 + o.Shift
	if scale < 6 {
		scale = 6
	}
	side := uint32(1) << ((scale + 1) / 2)

	rmat := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 7, MaxWeight: 0})
	grid := gen.Grid(gen.GridOptions{Width: side, Height: side, Seed: 7})

	bfsRMAT, err := algorithms.NewBFSGraph(rmat.Clone(), 0)
	if err != nil {
		panic(err)
	}
	bfsGrid, err := algorithms.NewBFSGraph(grid, 0)
	if err != nil {
		panic(err)
	}
	prGraph, err := algorithms.NewPageRankGraph(rmat, 0)
	if err != nil {
		panic(err)
	}
	bfsRMATRoot := maxOutDegreeVertex(bfsRMAT.Adjacency())
	bfsWS := graphmat.NewWorkspace[uint32, uint32](int(bfsRMAT.NumVertices()), graphmat.Bitvector)
	gridWS := graphmat.NewWorkspace[uint32, uint32](int(bfsGrid.NumVertices()), graphmat.Bitvector)

	t := &Table{
		Title: "Direction optimization: push vs pull vs per-superstep auto (speedup over pull)",
		Caption: fmt.Sprintf("RMAT scale %d ef 16; grid %dx%d; %d PageRank iterations; threads per -threads",
			scale, side, side, o.PRIters),
		Header: []string{"mode", "BFS/rmat", "BFS/grid", "PageRank/rmat"},
	}
	workloads := []func(cfg graphmat.Config){
		func(cfg graphmat.Config) {
			must(algorithms.RunBFS(context.Background(), bfsRMAT, bfsRMATRoot, algorithms.WithConfig(cfg), algorithms.WithWorkspace(bfsWS)))
		},
		func(cfg graphmat.Config) {
			must(algorithms.RunBFS(context.Background(), bfsGrid, 0, algorithms.WithConfig(cfg), algorithms.WithWorkspace(gridWS)))
		},
		func(cfg graphmat.Config) {
			must(algorithms.RunPageRank(context.Background(), prGraph, algorithms.WithConfig(cfg), algorithms.WithIterations(o.PRIters)))
		},
	}
	var base []float64
	for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto} {
		o.progress("Direction %s", mode)
		cfg := graphmat.Config{Threads: o.Threads, Mode: mode}
		row := []string{mode.String()}
		var secs []float64
		for _, run := range workloads {
			secs = append(secs, timeBest(o.Repeats, func() { run(cfg) }))
		}
		if base == nil {
			base = secs
		}
		for i, s := range secs {
			row = append(row, FormatRatio(base[i]/s))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
