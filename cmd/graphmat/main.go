// Command graphmat runs one of the library's graph algorithms on a graph
// file, mirroring the workflow of the paper's C++ release (load graph, run
// vertex program, print results and timing). Algorithms are resolved through
// the algorithms registry — the same dispatch table graphmatd serves over
// HTTP — so the CLI and the service can never disagree about what an
// algorithm name means; cf and degrees are CLI-only extras.
//
// Usage:
//
//	graphmat -algorithm sssp -graph road.mtx -source 6
//	graphmat -algorithm pagerank -graph web.bin -iters 20 -top 10
//	graphmat -algorithm pagerank -graph web.bin -iters 200 -progress -timeout 30s
//	graphmat -algorithm triangles -graph social.mtx
//	graphmat -algorithm cf -graph ratings.mtx -iters 10
//	graphmat -algorithm bfs -graph social.mtx -source 0
//	graphmat -algorithm bfs -graph social.mtx -sources 0,17,42
//	graphmat -algorithm components -graph social.mtx
//	graphmat snap inspect [-verify] web.snap
//	graphmat snap convert [-algorithm pagerank] [-partitions N] web.mtx web.snap
//
// The snap subcommands work with GMATSNAP persistence files — the format
// graphmatd's -data-dir checkpoints use. inspect decodes the header and
// section table of a snapshot (with -verify adding the deep pass: payload
// CRCs and full structural validation); convert parses a graph file once and writes it as a snapshot, so
// later boots mmap the arrays instead of re-parsing text.
//
// -sources runs one independent single-source query per listed vertex as a
// multi-source block batch: the adjacency sweeps are shared across sources,
// and per-source results are bit-identical to separate -source runs.
//
// Runs are context-aware sessions: -timeout bounds wall time, -progress
// streams per-superstep convergence, and Ctrl-C cancels gracefully, printing
// the partial statistics of the work completed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

func main() {
	// The snap subcommands have their own flag sets and argument shapes, so
	// they dispatch before the top-level flag.Parse.
	if len(os.Args) > 1 && os.Args[1] == "snap" {
		snapMain(os.Args[2:])
		return
	}
	var (
		algo     = flag.String("algorithm", "", strings.Join(append(algorithms.Names(), "cf", "degrees"), ", "))
		path     = flag.String("graph", "", "graph file (.mtx, .bin, or text edge list)")
		source   = flag.Uint("source", 0, "bfs/sssp/ppr source vertex")
		sources  = flag.String("sources", "", "comma-separated source vertices: one independent run per source, batched as a multi-source block run (batchable algorithms only)")
		iters    = flag.Int("iters", 10, "iterations for pagerank/ppr/hits/cf")
		top      = flag.Int("top", 5, "print the top-k vertices of the result")
		threads  = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		modeName = flag.String("mode", "auto", "SpMV kernel: auto (per-superstep direction optimization), pull, or push")
		jobs     = flag.Int("j", 0, "parallel ingestion workers for loading the graph (0 = GOMAXPROCS, 1 = sequential)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		progress = flag.Bool("progress", false, "print per-superstep progress")
		updates  = flag.String("updates", "", "edge-update stream (NDJSON or '[add|del] src dst [w]' lines) applied through the versioned store before the run")
	)
	flag.Parse()
	if *algo == "" || *path == "" {
		fmt.Fprintln(os.Stderr, "graphmat: -algorithm and -graph are required")
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C cancels the run gracefully: the engine stops cooperatively and
	// the partial statistics (and result state) are still reported. Once the
	// context is done the signal registration is released, so a second
	// interrupt kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var obs algorithms.Observer
	if *progress {
		obs = func(info graphmat.IterationInfo) error {
			fmt.Printf("  superstep %3d [%s]: %d active, %d sent, %s\n",
				info.Iteration, info.Mode, info.Active, info.Sent, info.Elapsed.Round(time.Microsecond))
			return nil
		}
	}

	// Validate the mode before paying for the graph load: a typo'd -mode on
	// a multi-gigabyte graph should fail instantly.
	mode, err := graphmat.ParseMode(*modeName)
	if err != nil {
		fatal("%v", err)
	}

	adj, err := graphmat.LoadFileOptions(*path, graphmat.LoadOptions{Parallelism: *jobs})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("loaded %s: %d vertices, %d edges\n", *path, adj.NRows, len(adj.Entries))
	cfg := graphmat.Config{Threads: *threads, Mode: mode}
	start := time.Now()

	// -updates rides the versioned store: the batch lands as delta overlays
	// on the built instance — the same path a live graphmatd mutation takes —
	// rather than as a pre-load edit of the input.
	var batch []graphmat.EdgeUpdate
	var master *graphmat.COO[float32]
	if *updates != "" {
		if batch, err = graphmat.LoadUpdatesFile(*updates); err != nil {
			fatal("%v", err)
		}
		master = adj.Clone()
		graphmat.NormalizeAdjacency(master, *jobs)
	}

	name := strings.ToLower(*algo)
	if name == "cc" { // historical CLI name for connected components
		name = "components"
	}
	if *updates != "" && (name == "cf" || name == "degrees") {
		fatal("-updates supports the registry algorithms (%s), not %s", strings.Join(algorithms.Names(), ", "), name)
	}
	var sourceList []uint32
	if *sources != "" {
		if name == "cf" || name == "degrees" {
			fatal("-sources supports the batchable registry algorithms, not %s", name)
		}
		for _, field := range strings.Split(*sources, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(field), 10, 32)
			if err != nil {
				fatal("-sources: %v", err)
			}
			sourceList = append(sourceList, uint32(v))
		}
	}
	switch name {
	case "cf":
		g, err := algorithms.NewCFGraph(adj, 0)
		if err != nil {
			fatal("%v", err)
		}
		build := time.Since(start)
		start = time.Now()
		_, stats, err := algorithms.CFContext(ctx, g, algorithms.CFOptions{Iterations: *iters, Config: cfg}, obs)
		reportStop(stats, err)
		report(build, time.Since(start), stats.Iterations)
		fmt.Printf("factorized %d vertices into %d latent dimensions\n", g.NumVertices(), algorithms.LatentDim)
		return
	case "degrees":
		g, err := graphmat.New[uint32](adj, graphmat.Options{})
		if err != nil {
			fatal("%v", err)
		}
		build := time.Since(start)
		start = time.Now()
		deg, stats := algorithms.Degrees(g, graphmat.Out, cfg)
		report(build, time.Since(start), stats.Iterations)
		ranks := make([]float64, len(deg))
		for i, d := range deg {
			ranks[i] = float64(d)
		}
		printTopFloat(ranks, *top, "in-degree")
		return
	}

	spec, ok := algorithms.Lookup(name)
	if !ok {
		fatal("unknown algorithm %q (have %s, cf, degrees)", *algo, strings.Join(algorithms.Names(), ", "))
	}
	inst, err := spec.Build(adj, 0)
	if err != nil {
		fatal("%v", err)
	}
	build := time.Since(start)
	if len(batch) > 0 {
		applyStart := time.Now()
		if master, err = graphmat.ApplyToAdjacency(master, batch); err != nil {
			fatal("%v", err)
		}
		res, err := inst.ApplyUpdates(batch, algorithms.NewRawEdgeLookup(master))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("applied %d updates in %.3fs: epoch %d, +%d -%d ~%d property edges (compacted=%v)\n",
			len(batch), time.Since(applyStart).Seconds(), res.Epoch, res.Inserted, res.Deleted, res.Updated, res.Compacted)
	}
	if len(sourceList) > 0 {
		if !spec.Batchable {
			fatal("%s has no source parameter to batch over; use -source-less invocation", name)
		}
		params := algorithms.Params{Sources: sourceList, Iterations: *iters, Threads: *threads, Mode: mode}
		start = time.Now()
		bres, err := inst.RunBatch(ctx, nil, params, obs)
		reportStop(bres.Stats, err)
		report(build, time.Since(start), bres.Stats.Iterations)
		blocks := (len(bres.Sources) + graphmat.MaxBlockSources - 1) / graphmat.MaxBlockSources
		fmt.Printf("batched %d sources across %d block run(s)\n", len(bres.Sources), blocks)
		for i, src := range bres.Sources {
			fmt.Printf("source %d:\n", src)
			printResult(name, algorithms.Result{Values: bres.Values[i]}, uint(src), *top)
		}
		return
	}
	params := algorithms.Params{Source: uint32(*source), Iterations: *iters, Threads: *threads, Mode: mode}
	start = time.Now()
	res, err := inst.RunContext(ctx, params, nil, obs)
	reportStop(res.Stats, err)
	report(build, time.Since(start), res.Stats.Iterations)
	printResult(name, res, *source, *top)
}

// reportStop handles a run's error: stopped runs (Ctrl-C, -timeout) print
// the typed reason and fall through so the partial stats and result state
// still print; real failures abort.
func reportStop(stats graphmat.Stats, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Printf("run stopped early (%s) — reporting partial results\n", stats.Reason)
		return
	}
	fatal("%v", err)
}

// printResult renders the registry's uniform result shape with the summary
// each algorithm's output is usually read for.
func printResult(name string, res algorithms.Result, source uint, top int) {
	switch name {
	case "bfs":
		reached := 0
		for _, d := range res.Values {
			if d != float64(algorithms.Unreached) {
				reached++
			}
		}
		fmt.Printf("reached %d/%d vertices from %d\n", reached, len(res.Values), source)
	case "sssp":
		reached, sum := 0, 0.0
		for _, d := range res.Values {
			if d != float64(algorithms.InfDist) {
				reached++
				sum += d
			}
		}
		fmt.Printf("reached %d/%d vertices from %d; mean distance %.2f\n",
			reached, len(res.Values), source, sum/float64(max(reached, 1)))
	case "components":
		comps := map[float64]int{}
		for _, l := range res.Values {
			comps[l]++
		}
		fmt.Printf("connected components: %d\n", len(comps))
	case "triangles":
		fmt.Printf("triangles: %d\n", *res.Count)
	case "hits":
		printTopFloat(res.Series["auth"], top, "authority")
		printTopFloat(res.Series["hub"], top, "hub")
	default: // pagerank, ppr: a ranked per-vertex series
		printTopFloat(res.Values, top, "rank")
	}
}

func report(build, run time.Duration, iterations int) {
	fmt.Printf("build %.3fs  run %.3fs  supersteps %d\n", build.Seconds(), run.Seconds(), iterations)
}

func printTopFloat(vals []float64, k int, what string) {
	type pair struct {
		v uint32
		x float64
	}
	ps := make([]pair, len(vals))
	for i, x := range vals {
		ps[i] = pair{uint32(i), x}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x > ps[j].x })
	if k > len(ps) {
		k = len(ps)
	}
	for i := 0; i < k; i++ {
		fmt.Printf("  #%d vertex %d: %s %.4f\n", i+1, ps[i].v, what, ps[i].x)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphmat: "+format+"\n", args...)
	os.Exit(1)
}

// snapMain dispatches the GMATSNAP tooling subcommands.
func snapMain(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "graphmat snap: want a subcommand: inspect or convert")
		os.Exit(2)
	}
	switch args[0] {
	case "inspect":
		snapInspect(args[1:])
	case "convert":
		snapConvert(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "graphmat snap: unknown subcommand %q (want inspect or convert)\n", args[0])
		os.Exit(2)
	}
}

// snapInspect decodes a snapshot's header and section table; -verify adds
// the deep pass: every section's payload CRC and the image's validation.
func snapInspect(args []string) {
	fs := flag.NewFlagSet("graphmat snap inspect", flag.ExitOnError)
	verify := fs.Bool("verify", false, "recompute and check every section's payload CRC and validate the image")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "graphmat snap inspect: want exactly one snapshot file")
		os.Exit(2)
	}
	sf, err := graphmat.OpenSnap(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer sf.Close()
	info := sf.Info()
	fmt.Printf("%s: GMATSNAP v%d\n", info.Path, info.Version)
	fmt.Printf("  epoch %d  tag %d\n", info.Epoch, info.Tag)
	fmt.Printf("  %d x %d vertices, %d edges\n", info.NRows, info.NCols, info.NEdges)
	fmt.Printf("  %s, %d partition(s)\n", describeDirections(info.Directions), info.Partitions)
	fmt.Printf("  file %d bytes, payload %d bytes, %d section(s)\n", info.FileSize, info.DataBytes, len(info.Sections))
	fmt.Printf("  %-8s %-4s %5s  %10s  %10s  %s\n", "kind", "dir", "part", "offset", "length", "crc")
	for _, s := range info.Sections {
		fmt.Printf("  %-8s %-4s %5d  %10d  %10d  %08x\n", s.Kind, s.Dir, s.Part, s.Offset, s.Length, s.CRC)
	}
	if *verify {
		if err := sf.Verify(); err != nil {
			fatal("verify: %v", err)
		}
		fmt.Println("  verify: all section CRCs match, image validates")
	}
}

func describeDirections(dirs uint32) string {
	switch dirs {
	case 0:
		return "raw adjacency image"
	case 1:
		return "directions out"
	case 2:
		return "directions in"
	default:
		return "directions out|in"
	}
}

// snapConvert parses a graph file and writes it back as a GMATSNAP snapshot.
// Without -algorithm the output is a raw adjacency image (the form the
// daemon's master copy persists as); with -algorithm it is that algorithm's
// fully built property graph, mmap-bootable without a rebuild.
func snapConvert(args []string) {
	fs := flag.NewFlagSet("graphmat snap convert", flag.ExitOnError)
	algo := fs.String("algorithm", "", "snapshot this registry algorithm's built property graph (empty = raw adjacency image)")
	partitions := fs.Int("partitions", 0, "matrix partitions for the build (0 = auto); used only with -algorithm")
	jobs := fs.Int("j", 0, "parallel ingestion workers for loading the graph (0 = GOMAXPROCS, 1 = sequential)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "graphmat snap convert: want an input graph file and an output snapshot path")
		os.Exit(2)
	}
	in, out := fs.Arg(0), fs.Arg(1)
	start := time.Now()
	adj, err := graphmat.LoadFileOptions(in, graphmat.LoadOptions{Parallelism: *jobs})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("loaded %s: %d vertices, %d edges in %.3fs\n", in, adj.NRows, len(adj.Entries), time.Since(start).Seconds())

	start = time.Now()
	var img *graphmat.SnapImage
	if *algo == "" {
		// Raw image: the normalized adjacency triples, no built structures.
		graphmat.NormalizeAdjacency(adj, *jobs)
		img = &graphmat.SnapImage{
			NRows:  adj.NRows,
			NCols:  adj.NCols,
			NEdges: uint64(len(adj.Entries)),
			Fwd:    adj.Entries,
		}
	} else {
		spec, ok := algorithms.Lookup(strings.ToLower(*algo))
		if !ok {
			fatal("unknown algorithm %q (have %s)", *algo, strings.Join(algorithms.Names(), ", "))
		}
		inst, err := spec.Build(adj, *partitions)
		if err != nil {
			fatal("%v", err)
		}
		if img, err = inst.SnapImage(0); err != nil {
			fatal("%v", err)
		}
	}
	if err := graphmat.WriteSnap(out, img); err != nil {
		fatal("%v", err)
	}
	st, err := os.Stat(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s: %d bytes in %.3fs\n", out, st.Size(), time.Since(start).Seconds())
}
