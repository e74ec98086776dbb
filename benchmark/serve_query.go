package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/native"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// serve_query: a real graphmatd child (volatile, default 2 ms batch window)
// preloaded with an RMAT-16 GMATBIN2 file, under two closed-loop clients
// drawing from a seeded mix on POST /v1/graphs/g/run. This is the measurement
// of the request path a user meets: HTTP decode, batcher wait, block engine
// at k=1, values→float64, JSON encode.

const (
	queryClients = 2
	runPath      = "/v1/graphs/g/run"
	edgesPath    = "/v1/graphs/g/edges"
	checkEvery   = 16 // decode and oracle-check every 16th response
	setupRepeats = 3  // daemon cold starts per run; setup_s is their median
)

// servedInputs is the generated input of a served workload: the graph file
// handed to the daemon, the normalized master the oracle replays, and the
// source pool the request mixes draw from.
type servedInputs struct {
	path   string
	master *sparse.COO[float32]
	pool   []uint32
}

func buildServed(c *config) (*servedInputs, error) {
	adj := rmatGraph(c.sz.serveScale)
	in := &servedInputs{path: filepath.Join(c.tmpDir, "g.bin")}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	if err := graph.WriteBinary2(f, adj, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in.pool = sampleRoots(rootCandidates(adj), c.sz.sourcePool, gen.NewRNG(subSeed(c.seed, "source-pool")), nil)
	graphmat.NormalizeAdjacency(adj, 0)
	in.master = adj
	return in, nil
}

// warmBodies returns one request per algorithm — from the pool's first source
// where the algorithm takes one — whose answers mean every instance the
// workload uses is built (builds are lazy).
func warmBodies(algos []string, pool []uint32) [][]byte {
	bodies := make([][]byte, len(algos))
	for i, algo := range algos {
		var srcs []uint32
		if spec, _ := algorithms.Lookup(algo); spec.Batchable {
			srcs = pool[:1]
		}
		bodies[i] = runBody(algo, srcs, false)
	}
	return bodies
}

// warmDaemon sends the warm-up requests and returns when all have answered.
func warmDaemon(ctx context.Context, d *daemon, pool []uint32, algos []string) error {
	for i, body := range warmBodies(algos, pool) {
		code, reply, err := d.post(ctx, runPath, body, true)
		if err != nil {
			return fmt.Errorf("warming %s: %w", algos[i], err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", algos[i], code, reply)
		}
	}
	return nil
}

// startWarm cold-starts the daemon repeats times (each from scratch, the
// earlier ones killed) and returns the last one running plus the median time
// from exec to "every instance warm" — the first moment a correct answer to
// any request of the mix is possible — raw and at reference speed (scaled by
// the speed index from yardstick runs taken right before and after each start).
// argsFor gives each attempt its flags (a durable daemon needs a fresh data
// directory per cold start).
func startWarm(ctx context.Context, c *config, in *servedInputs, nat *servedNative, algos []string, repeats int, argsFor func(attempt int) []string) (d *daemon, rawS, atRefS float64, err error) {
	bin, err := buildDaemon(c.root)
	if err != nil {
		return nil, 0, 0, err
	}
	yardOp := queryOp{algo: "sssp", sources: in.pool[:1]}
	yardstick := func(n int) (ms []float64) {
		for i := 0; i < n; i++ {
			ms = append(ms, nat.time(yardOp))
		}
		return ms
	}
	var raw, yard []float64
	for i := 0; ; i++ {
		yard = append(yard, yardstick(3)...)
		args := append([]string{"-graph", "g=" + in.path}, argsFor(i)...)
		d, err := startDaemon(bin, filepath.Join(c.tmpDir, fmt.Sprintf("graphmatd-%d.log", i)), args...)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := warmDaemon(ctx, d, in.pool, algos); err != nil {
			d.kill()
			return nil, 0, 0, err
		}
		raw = append(raw, time.Since(d.started).Seconds())
		yard = append(yard, yardstick(3)...)
		if i == repeats-1 {
			return d, median(raw), median(raw) * speedIndex(servedYardstickMS, yard), nil
		}
		d.kill()
	}
}

// sample is one timed request. nativeMS, when non-zero, is the hand-written
// kernel's time on the same (algorithm, source), taken by the client right
// after the reply arrived.
type sample struct {
	op       queryOp
	ms       float64
	nativeMS float64
}

// servedNative holds the native structures of the served graph's epoch-0
// edge set.
type servedNative struct{ directed, symmetric *native.Graph }

// time runs the native kernel matching a single-source bfs or sssp request,
// on one thread: the other client's request may be in the daemon right now.
func (n *servedNative) time(op queryOp) float64 {
	t0 := time.Now()
	if op.algo == "bfs" {
		native.BFS(n.symmetric, op.sources[0], 1)
	} else {
		native.SSSP(n.directed, op.sources[0], 1)
	}
	return msSince(t0)
}

// runClient issues ops one after another on the daemon (closed loop: the next
// request leaves only after the previous reply's last byte). Every
// checkEvery-th reply is kept for the oracle; the rest are read and dropped
// so the generator leaves the two cores to the daemon — with one exception:
// after each single-source bfs or sssp reply the client runs the native
// kernel on the same source (2–13 ms against a 30–60 ms request). The box's
// speed swings by tens of percent within seconds, and only a yardstick taken
// next to each request lets native_ratio cancel that.
func runClient(ctx context.Context, d *daemon, nat *servedNative, ops []queryOp, r *result, mu *sync.Mutex, stop func() bool) ([]sample, []observed) {
	var samples []sample
	var kept []observed
	for i, op := range ops {
		if ctx.Err() != nil || (stop != nil && stop()) {
			break
		}
		t0 := time.Now()
		code, body, err := d.post(ctx, runPath, op.body, i%checkEvery == 0)
		ms := msSince(t0)
		mu.Lock()
		r.Attempted++
		switch {
		case err != nil:
			r.fail("%s %s: %v", op.class, op.algo, err)
		case code != http.StatusOK:
			r.fail("%s %s: status %d", op.class, op.algo, code)
		}
		mu.Unlock()
		if err != nil || code != http.StatusOK {
			continue
		}
		smp := sample{op: op, ms: ms}
		if isTraversal(op) {
			smp.nativeMS = nat.time(op)
		}
		samples = append(samples, smp)
		if body != nil {
			ob, err := decodeRun(op, body)
			if err != nil {
				mu.Lock()
				r.fail("%s %s: undecodable reply: %v", op.class, op.algo, err)
				mu.Unlock()
				continue
			}
			kept = append(kept, ob)
		}
	}
	return samples, kept
}

// byClass returns the latencies of one request class, all algorithms pooled.
func byClass(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.op.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// classLatency is a request class's latency figure: the median per
// algorithm, then the geometric mean over the algorithms. A pooled median
// would sit wherever two algorithms' distributions happen to meet (bfs and
// sssp replies take a third of a ppr reply's time) and jump with the mix.
func classLatency(samples []sample, class string) float64 {
	byAlgo := map[string][]float64{}
	for _, s := range samples {
		if s.op.class == class {
			byAlgo[s.op.algo] = append(byAlgo[s.op.algo], s.ms)
		}
	}
	var meds []float64
	for _, ms := range byAlgo {
		meds = append(meds, median(ms))
	}
	return geomean(meds...)
}

// servedNativeRatio is the paper's "times off native" for the served path:
// per single-source bfs and sssp request, client-observed latency over the
// native kernel's time on the same source taken right after it; the median
// per algorithm, geometric mean of the two.
func servedNativeRatio(samples []sample) float64 {
	ratios := map[string][]float64{}
	for _, s := range samples {
		if s.nativeMS > 0 {
			ratios[s.op.algo] = append(ratios[s.op.algo], s.ms/s.nativeMS)
		}
	}
	return geomean(median(ratios["bfs"]), median(ratios["sssp"]))
}

// servedYardstickMS is the reference time of the served workloads'
// yardstick: one single-thread native.SSSP on the RMAT-16 graph from a pool
// source, taken by a client between requests, on the reference box when quiet.
const servedYardstickMS = 15

// servedSpeedIndex is the run's speed index from the clients' native sssp
// samples.
func servedSpeedIndex(samples []sample) float64 {
	var yard []float64
	for _, s := range samples {
		if s.nativeMS > 0 && s.op.algo == "sssp" {
			yard = append(yard, s.nativeMS)
		}
	}
	return speedIndex(servedYardstickMS, yard)
}

// samplesByAlgo files a class's latencies under "<class>_<algo>" for the
// record.
func samplesByAlgo(r *result, samples []sample, class string) {
	for _, s := range samples {
		if s.op.class == class {
			key := class + "_" + s.op.algo
			r.Samples[key] = append(r.Samples[key], s.ms)
		}
	}
}

var queryAlgos = []string{"bfs", "sssp", "ppr", "pagerank", "components"}

func runServeQuery(ctx context.Context, c *config, r *result) error {
	in, err := buildServed(c)
	if err != nil {
		return err
	}
	perClient := c.count(9, 40)
	mixes := make([][]queryOp, queryClients)
	for i := range mixes {
		mixes[i] = queryMix(c.seed, i, in.pool, c.sz.multiWidth, perClient)
	}

	directed, symmetric := servedNatives(in)
	nat := &servedNative{directed, symmetric}

	d, setupRawS, setupS, err := startWarm(ctx, c, in, nat, queryAlgos, setupRepeats, func(int) []string { return nil })
	if err != nil {
		return err
	}
	defer d.kill()

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		samples []sample
		kept    []observed
	)
	measureStart := time.Now()
	for i := range mixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, k := runClient(ctx, d, nat, mixes[i], r, &mu, nil)
			mu.Lock()
			samples, kept = append(samples, s...), append(kept, k...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	measured := time.Since(measureStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading daemon VmHWM: %v; stderr:\n%s", err, d.logTail())
	}
	d.kill()

	// Oracle, after the daemon is gone so it never competed for the cores.
	oracle := newServedOracle(in.master)
	for _, ob := range kept {
		if ob.epoch != 0 {
			r.fail("%s reply claims epoch %d on a graph that was never updated", ob.op.algo, ob.epoch)
			continue
		}
		if err := oracle.check(ob); err != nil {
			r.fail("%v", err)
		}
	}

	single, multi := byClass(samples, "single"), byClass(samples, "multi")
	samplesByAlgo(r, samples, "single")
	samplesByAlgo(r, samples, "multi")
	index := servedSpeedIndex(samples) // gated times are at reference speed
	r.set("setup_s", setupS)
	r.set("primary_ms", classLatency(samples, "single")*index)
	r.set("secondary_ms", classLatency(samples, "multi")*index)
	r.set("native_ratio", servedNativeRatio(samples))
	r.set("peak_rss_mb", rss)
	r.set("speed_index", index)
	r.set("setup_raw_s", setupRawS)
	r.set("query_ms_p50", median(single))
	if len(single) >= 200 {
		r.set("query_ms_p95", percentile(single, 95))
	}
	r.set("multi_ms_p50", median(multi))
	r.set("queries_per_s", float64(len(samples))/measured)
	r.set("samples_primary", float64(len(single)))
	r.set("samples_secondary", float64(len(multi)))
	r.set("measured_s", measured)
	r.note("closed loop, %d clients x %d requests; %d replies decoded and checked against the in-process result", queryClients, perClient, len(kept))
	return nil
}
