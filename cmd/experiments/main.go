// Command experiments regenerates the tables and figures of the GraphMat
// paper's evaluation section (§5) on synthetic stand-in datasets.
//
// Usage:
//
//	experiments -experiment all
//	experiments -experiment fig4a -shift 1 -threads 4
//	experiments -experiment fig7 -repeats 3
//
// Experiments: table1, fig4a, fig4b, fig4c, fig4d, fig4e, table2, table3,
// fig5, fig6, fig7, direction, all. Table 2/3 and Figure 6 are derived from
// the Figure 4 measurements and run them implicitly. The extra "converge"
// experiment uses the engine's per-superstep observer to report PageRank's
// convergence trajectory instead of end-to-end timings, and "direction"
// measures the push/pull/auto kernel ablation in the Figure 7 style.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/bench"
	"graphmat/internal/gen"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (table1, fig4a..fig4e, table2, table3, fig5, fig6, fig7, direction, converge, all)")
		shift      = flag.Int("shift", 0, "dataset size shift: each +1 doubles stand-in sizes toward paper scale")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		maxThreads = flag.Int("maxthreads", 0, "figure 5 sweep upper bound (0 = GOMAXPROCS)")
		prIters    = flag.Int("priters", 10, "PageRank iterations (time/iteration plots)")
		cfIters    = flag.Int("cfiters", 5, "CF iterations (time/iteration plots)")
		repeats    = flag.Int("repeats", 1, "warm repetitions per measurement after its cold first run (minimum kept)")
		dataset    = flag.String("dataset", "", "restrict to datasets whose name contains this substring")
		frameworks = flag.String("frameworks", "", "comma-separated framework filter (e.g. GraphMat,Native)")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	o := bench.Options{
		Shift: *shift, Threads: *threads, MaxThreads: *maxThreads,
		PRIters: *prIters, CFIters: *cfIters, Repeats: *repeats,
		DatasetFilter: *dataset, Verbose: !*quiet,
	}
	if *frameworks != "" {
		o.Frameworks = strings.Split(*frameworks, ",")
	}

	run(strings.ToLower(*experiment), o)
}

func run(experiment string, o bench.Options) {
	emit := func(t fmt.Stringer) { fmt.Println(t.String()) }

	var fig4 []*bench.Fig4Result
	needFig4 := func() []*bench.Fig4Result {
		if fig4 == nil {
			fig4 = []*bench.Fig4Result{
				bench.Fig4a(o), bench.Fig4b(o), bench.Fig4c(o), bench.Fig4d(o), bench.Fig4e(o),
			}
		}
		return fig4
	}

	switch experiment {
	case "table1":
		emit(bench.Table1(o))
	case "fig4a":
		emit(bench.Fig4a(o).Table())
	case "fig4b":
		emit(bench.Fig4b(o).Table())
	case "fig4c":
		emit(bench.Fig4c(o).Table())
	case "fig4d":
		emit(bench.Fig4d(o).Table())
	case "fig4e":
		emit(bench.Fig4e(o).Table())
	case "table2":
		emit(bench.Table2(needFig4()))
	case "table3":
		emit(bench.Table3(needFig4()))
	case "fig5":
		for _, t := range bench.Fig5(o) {
			emit(t)
		}
	case "fig6":
		for _, t := range bench.Fig6(needFig4()) {
			emit(t)
		}
	case "fig7":
		emit(bench.Fig7(o))
	case "direction":
		emit(bench.DirectionOptimization(o))
	case "converge":
		convergence(o)
	case "all":
		emit(bench.Table1(o))
		for _, r := range needFig4() {
			emit(r.Table())
		}
		emit(bench.Table2(fig4))
		emit(bench.Table3(fig4))
		for _, t := range bench.Fig6(fig4) {
			emit(t)
		}
		for _, t := range bench.Fig5(o) {
			emit(t)
		}
		emit(bench.Fig7(o))
		emit(bench.DirectionOptimization(o))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// convergence runs PageRank on an RMAT stand-in with a per-superstep
// observer and prints the convergence trajectory: how many vertices still
// moved beyond the tolerance after each superstep, and the superstep's wall
// time. The trajectory is what the blocking experiments cannot show — the
// engine's whole-run timings collapse it into one number.
func convergence(o bench.Options) {
	scale := 14 + o.Shift
	iters := o.PRIters
	if iters < 30 {
		iters = 30
	}
	const tolerance = 1e-7
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20, MaxWeight: 0})
	g, err := algorithms.NewPageRankGraph(adj, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "building pagerank graph: %v\n", err)
		os.Exit(1)
	}
	n := g.NumVertices()
	fmt.Printf("# PageRank convergence — RMAT scale %d (%d vertices, %d edges), tolerance %g\n",
		scale, n, g.NumEdges(), tolerance)
	fmt.Printf("%-5s  %12s  %12s  %9s  %9s\n", "iter", "unconverged", "frac", "step_ms", "total_ms")
	_, stats, err := algorithms.RunPageRank(context.Background(), g,
		algorithms.WithIterations(iters), algorithms.WithTolerance(tolerance), algorithms.WithThreads(o.Threads),
		algorithms.WithObserver(func(info graphmat.IterationInfo) error {
			fmt.Printf("%-5d  %12d  %12.6f  %9.3f  %9.3f\n",
				info.Iteration, info.NextActive, float64(info.NextActive)/float64(n),
				float64(info.Elapsed.Microseconds())/1000, float64(info.Total.Microseconds())/1000)
			return nil
		}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pagerank: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# %s after %d supersteps\n", stats.Reason, stats.Iterations)
}
