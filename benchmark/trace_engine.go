package main

import (
	"context"
	"runtime"
	"time"
	"unsafe"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/native"
)

// The engine section of a traced run: the workload's library operations
// replayed at successive depths — the algorithms driver, the engine run under
// it (one child span per superstep, from the observer), a single generalized
// SpMV — with the engine's own counters summed beside the spans.

// engineAcc accumulates what the bare algorithm runs of one traced workload
// did: the engine's exact counters, every superstep's wall time, and the
// scheduler's share.
type engineAcc struct {
	stats    graphmat.Stats
	stepUS   []float64 // every superstep's Elapsed
	wallMS   float64   // summed run wall time
	runSpans []int     // the runs' spans: their self time is the driver's
	bytes    float64   // computed bytes touched (see touched)
	wakes0   int64
}

func newEngineAcc() *engineAcc { return &engineAcc{wakes0: schedWakes()} }

// run executes one bare algorithm run as an algorithms-layer span whose
// children are the run's supersteps. fn receives the observer to pass down
// and returns the run's stats; perEdge and perVertex are the run's element
// sizes for the computed-bytes figure.
func (a *engineAcc) run(p *tracedRun, name string, op, parent int, perEdge, perVertex int, fn func(obs graphmat.Observer) (graphmat.Stats, error)) (float64, error) {
	id := p.tr.begin(name, layerAlgorithms, op, parent)
	start := time.Now()
	st, err := fn(func(info graphmat.IterationInfo) error {
		lo, hi := spanInterval(start, info)
		p.tr.add("superstep "+info.Mode.String(), layerCore, op, id, lo, hi)
		a.stepUS = append(a.stepUS, float64(info.Elapsed.Nanoseconds())/1e3)
		return nil
	})
	wall := p.tr.end(id)
	if err != nil {
		return 0, err
	}
	ms := float64(wall.Nanoseconds()) / 1e6
	a.add(st, ms)
	a.runSpans = append(a.runSpans, id)
	a.bytes += touched(st, perEdge, perVertex)
	return ms, nil
}

// add folds one run's stats and wall time in (runs timed elsewhere, at the
// serving depths, use it directly).
func (a *engineAcc) add(st graphmat.Stats, wallMS float64) {
	a.stats.Iterations += st.Iterations
	a.stats.MessagesSent += st.MessagesSent
	a.stats.EdgesProcessed += st.EdgesProcessed
	a.stats.Applies += st.Applies
	a.stats.ColumnsProbed += st.ColumnsProbed
	a.stats.PushSupersteps += st.PushSupersteps
	a.stats.PullSupersteps += st.PullSupersteps
	a.stats.Sched.Workers = st.Sched.Workers
	a.stats.Sched.Tasks += st.Sched.Tasks
	a.stats.Sched.Steals += st.Sched.Steals
	a.stats.Sched.BusyNS += st.Sched.BusyNS
	a.wallMS += wallMS
}

// touched is the computed lower bound on bytes a run moved, from the engine's
// counters and element sizes: per edge an index and a value plus the gathered
// message, per probed column its JC and CP entries, per apply the vertex
// property and the reduced value. It ignores cache misses and refetches.
func touched(st graphmat.Stats, perEdge, perVertex int) float64 {
	return float64(st.EdgesProcessed)*float64(4+perEdge) +
		float64(st.ColumnsProbed)*8 +
		float64(st.Applies+st.MessagesSent)*float64(perVertex)
}

// report sets the core, sched and driver metrics the accumulator backs. The
// driver's share is the run spans' self time: wall minus the supersteps.
func (a *engineAcc) report(r *result, tr *tracer) {
	s := a.stats
	r.set("core.supersteps", float64(s.Iterations))
	r.set("core.edges_processed", float64(s.EdgesProcessed))
	r.set("core.messages_sent", float64(s.MessagesSent))
	r.set("core.applies", float64(s.Applies))
	r.set("core.columns_probed", float64(s.ColumnsProbed))
	r.set("core.push_supersteps", float64(s.PushSupersteps))
	r.set("core.pull_supersteps", float64(s.PullSupersteps))
	r.set("core.superstep_us_p50", median(a.stepUS))
	r.set("core.medges_per_s", float64(s.EdgesProcessed)/1e6/(a.wallMS/1e3))
	r.set("core.computed_gb_per_s", a.bytes/1e9/(a.wallMS/1e3))
	r.set("sched.tasks", float64(s.Sched.Tasks))
	r.set("sched.steals", float64(s.Sched.Steals))
	r.set("sched.busy_frac", float64(s.Sched.BusyNS)/(a.wallMS*1e6*float64(max(s.Sched.Workers, 1))))
	r.set("sched.wakes", float64(schedWakes()-a.wakes0))
	r.set("algorithms.driver_self_ms", median(tr.selfMS(a.runSpans)))
}

// denseStep times the multiply phase alone against a whole all-active
// superstep on g: every vertex sends, one generalized SpMV runs, every
// reached vertex applies. init gives the vertex state the step starts from.
func denseStep[V, M any, P graphmat.Program[V, float32, M, M]](p *tracedRun, g *graphmat.Graph[V, float32], prog P, init func(v uint32) V, reps int) {
	var spmvMS, stepMS []float64
	n := g.NumVertices()
	for i := 0; i < reps; i++ {
		op := p.tr.newOp()
		g.InitProps(init)
		x := graphmat.NewVector[M](int(n))
		for v := uint32(0); v < n; v++ {
			if m, ok := prog.SendMessage(v, g.Prop(v)); ok {
				x.Set(v, m)
			}
		}
		spmvMS = append(spmvMS, p.tr.call("graphmat.SpMV (all active)", layerCore, op, -1, func(int) {
			graphmat.SpMV[V, float32, M, M](g, x, prog, graphmat.Config{})
		}))
		g.SetAllActive()
		stepMS = append(stepMS, p.tr.call("graphmat.Run (one all-active superstep)", layerCore, op, -1, func(int) {
			_, _ = graphmat.Run(g, prog, graphmat.Config{MaxIterations: 1}) // no context: the error is always nil
		}))
	}
	spmv := median(spmvMS)
	p.r.set("core.spmv_ms", spmv)
	p.r.set("core.send_apply_ms", median(stepMS)-spmv)
}

// blockProbe compares the block engine with the scalar one on a BFS graph:
// a one-source batch against a plain BFS (the k=1 overhead every served
// single-source query pays), and the per-source cost of a 16-source batch.
func blockProbe(ctx context.Context, p *tracedRun, g *graphmat.Graph[uint32, float32], roots []uint32, reps int) error {
	var scalarMS, k1MS, k16US []float64
	width := min(p.c.sz.multiWidth, len(roots))
	for i := 0; i < reps; i++ {
		root := roots[i%len(roots)]
		op := p.tr.newOp()
		var err error
		scalarMS = append(scalarMS, p.tr.call("algorithms.RunBFS", layerAlgorithms, op, -1, func(int) {
			_, _, err = algorithms.RunBFS(ctx, g, root)
		}))
		if err != nil {
			return err
		}
		k1MS = append(k1MS, p.tr.call("algorithms.RunBFSBatch k=1", layerAlgorithms, op, -1, func(int) {
			_, _, err = algorithms.RunBFSBatch(ctx, g, []uint32{root})
		}))
		if err != nil {
			return err
		}
		batch := make([]uint32, width)
		for j := range batch {
			batch[j] = roots[(i+j)%len(roots)]
		}
		ms := p.tr.call("algorithms.RunBFSBatch k=16", layerAlgorithms, op, -1, func(int) {
			_, _, err = algorithms.RunBFSBatch(ctx, g, batch)
		})
		if err != nil {
			return err
		}
		k16US = append(k16US, ms*1e3/float64(width))
	}
	p.r.set("core.block_k1_ratio", median(k1MS)/median(scalarMS))
	p.r.set("core.block_k16_per_source_us", median(k16US))
	return nil
}

// speedupProbe reports Threads=1 over Threads=GOMAXPROCS for run, the plain
// single-thread baseline included. On a box with fewer than four processors
// it is a sanity figure, not a scaling claim.
func speedupProbe(p *tracedRun, name string, reps int, run func(threads int) error) error {
	var one, all []float64
	for i := 0; i < reps; i++ {
		for _, threads := range []int{1, 0} {
			var err error
			ms := p.tr.call(name, layerCore, p.tr.newOp(), -1, func(int) { err = run(threads) })
			if err != nil {
				return err
			}
			if threads == 1 {
				one = append(one, ms)
			} else {
				all = append(all, ms)
			}
		}
	}
	p.r.set("core.speedup_nw", median(one)/median(all))
	p.r.note("core.speedup_nw: %s, Threads=1 over Threads=%d (nproc %d)", name, runtime.GOMAXPROCS(0), runtime.NumCPU())
	return nil
}

// sizeOf is unsafe.Sizeof for a type parameter's element.
func sizeOf[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// nativeSpan times one native kernel call as a span.
func nativeSpan(p *tracedRun, name string, op int, fn func()) float64 {
	return p.tr.call(name, layerNative, op, -1, func(int) { fn() })
}

// traceDenseEngine is lib_dense's engine section.
func traceDenseEngine(ctx context.Context, p *tracedRun, in *denseInputs, roots []uint32) error {
	rounds := p.c.count(0.8, 2)
	acc := newEngineAcc()
	var natPR, untraced, traced []float64
	for i := 0; i < rounds; i++ {
		op := p.tr.newOp()
		ms, err := acc.run(p, "algorithms.RunPageRank", op, -1, sizeOf[float32]()+sizeOf[float64](), sizeOf[algorithms.PRVertex]()+sizeOf[float64](),
			func(obs graphmat.Observer) (graphmat.Stats, error) {
				_, st, err := algorithms.RunPageRank(ctx, in.pr, algorithms.WithIterations(pprIters), algorithms.WithRestartProb(prRestart), algorithms.WithObserver(obs))
				return st, err
			})
		if err != nil {
			return err
		}
		traced = append(traced, ms)
		t0 := time.Now()
		if _, _, err := algorithms.RunPageRank(ctx, in.pr, algorithms.WithIterations(pprIters), algorithms.WithRestartProb(prRestart)); err != nil {
			return err
		}
		untraced = append(untraced, msSince(t0))
		natPR = append(natPR, nativeSpan(p, "native.PageRank", op, func() { native.PageRank(in.nat, prRestart, pprIters, 0) }))
		if _, err := acc.run(p, "algorithms.RunConnectedComponents", p.tr.newOp(), -1, sizeOf[float32]()+sizeOf[uint32](), 2*sizeOf[uint32](),
			func(obs graphmat.Observer) (graphmat.Stats, error) {
				_, st, err := algorithms.RunConnectedComponents(ctx, in.cc, algorithms.WithObserver(obs))
				return st, err
			}); err != nil {
			return err
		}
	}
	acc.report(p.r, p.tr)
	p.r.set("native.pagerank_ms", median(natPR))
	p.r.set("harness.trace_overhead_frac", overheadFrac(untraced, traced))

	denseStep(p, in.pr, algorithms.PageRankProgram{RestartProb: prRestart}, func(v uint32) algorithms.PRVertex {
		pv := algorithms.PRVertex{Rank: 1}
		if d := in.pr.OutDegree(v); d > 0 {
			pv.InvDeg = 1 / float64(d)
		}
		return pv
	}, 5)
	// The components graph is the BFS graph (same preprocessing, same types).
	if err := blockProbe(ctx, p, in.cc, roots, 3); err != nil {
		return err
	}
	return speedupProbe(p, "PageRank x10 on the RMAT graph", 3, func(threads int) error {
		_, _, err := algorithms.RunPageRank(ctx, in.pr, algorithms.WithIterations(pprIters), algorithms.WithThreads(threads))
		return err
	})
}

// traceSparseEngine is lib_sparse's engine section.
func traceSparseEngine(ctx context.Context, p *tracedRun, in *sparseInputs) error {
	rounds := min(p.c.count(0.25, 2), len(in.sources))
	acc := newEngineAcc()
	var natSSSP, natBFS, untraced, traced []float64
	for i := 0; i < rounds; i++ {
		src := in.sources[i]
		op := p.tr.newOp()
		ms, err := acc.run(p, "algorithms.RunSSSP", op, -1, 2*sizeOf[float32](), 2*sizeOf[float32](),
			func(obs graphmat.Observer) (graphmat.Stats, error) {
				_, st, err := algorithms.RunSSSP(ctx, in.grid, src, algorithms.WithObserver(obs))
				return st, err
			})
		if err != nil {
			return err
		}
		traced = append(traced, ms)
		t0 := time.Now()
		if _, _, err := algorithms.RunSSSP(ctx, in.grid, src); err != nil {
			return err
		}
		untraced = append(untraced, msSince(t0))
		natSSSP = append(natSSSP, nativeSpan(p, "native.SSSP", op, func() { native.SSSP(in.natGrid, src, 0) }))
		for j := 0; j < bfsPerRound; j++ {
			root := in.roots[(i*bfsPerRound+j)%len(in.roots)]
			op := p.tr.newOp()
			if _, err := acc.run(p, "algorithms.RunBFS", op, -1, sizeOf[float32]()+sizeOf[uint32](), 2*sizeOf[uint32](),
				func(obs graphmat.Observer) (graphmat.Stats, error) {
					_, st, err := algorithms.RunBFS(ctx, in.bfs, root, algorithms.WithObserver(obs))
					return st, err
				}); err != nil {
				return err
			}
			natBFS = append(natBFS, nativeSpan(p, "native.BFS", op, func() { native.BFS(in.natBFS, root, 0) }))
		}
	}
	acc.report(p.r, p.tr)
	p.r.set("native.sssp_ms", median(natSSSP))
	p.r.set("native.bfs_ms", median(natBFS))
	p.r.set("harness.trace_overhead_frac", overheadFrac(untraced, traced))

	denseStep(p, in.grid, algorithms.SSSPProgram{}, func(uint32) float32 { return 0 }, 5)
	if err := blockProbe(ctx, p, in.bfs, in.roots, 3); err != nil {
		return err
	}
	return speedupProbe(p, "BFS on the symmetrized RMAT graph", 3, func(threads int) error {
		_, _, err := algorithms.RunBFS(ctx, in.bfs, in.roots[0], algorithms.WithThreads(threads))
		return err
	})
}
