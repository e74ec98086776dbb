package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/native"
	"graphmat/internal/graph"
	"graphmat/internal/server"
	"graphmat/internal/snap"
)

// The serving sections of a traced run. Requests are replayed in-process at
// successive depths — an HTTP round trip against server.New on a loopback
// listener, GraphEntry.RunBatch / ApplyEdges, the algorithms instance, the
// bare algorithm run with an observer — so that each layer's share is the
// difference between neighbouring depths. Single-client passes are
// sequential, which keeps every engine counter exact for a seed.

// elemSizes gives an algorithm's per-edge and per-vertex bytes for the
// computed-bytes figure: edge value plus message, property plus reduced value.
func elemSizes(algo string) (perEdge, perVertex int) {
	switch algo {
	case "pagerank", "ppr":
		return 4 + 8, 24 + 8
	default: // bfs, sssp, components: 4-byte messages and properties
		return 4 + 4, 4 + 4
	}
}

// inproc is one in-process server behind a loopback listener.
type inproc struct {
	ts     *httptest.Server
	client *http.Client
}

func newInproc(cfg server.Config, graphPath string) (*inproc, error) {
	srv := server.New(cfg)
	if err := srv.AddGraph("g", server.Source{Path: graphPath}); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &inproc{ts: ts, client: ts.Client()}, nil
}

func (s *inproc) close() { s.ts.Close() }

// mustOK posts and turns any non-200 into an error (traced replays run
// operation lists on which nothing may fail).
func (s *inproc) mustOK(ctx context.Context, path string, body []byte) ([]byte, error) {
	code, data, err := httpPost(ctx, s.client, s.ts.URL+path, body, true)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, code, data)
	}
	return data, nil
}

// warm builds the instances of algos before anything is timed.
func (s *inproc) warm(ctx context.Context, algos []string, pool []uint32) error {
	for _, body := range warmBodies(algos, pool) {
		if _, err := s.mustOK(ctx, runPath, body); err != nil {
			return err
		}
	}
	return nil
}

// inprocStats is the slice of /v1/stats the traced run reads.
type inprocStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Batcher struct {
		Submitted int64 `json:"submitted"`
		Batches   int64 `json:"batches"`
		Coalesced int64 `json:"coalesced"`
	} `json:"batcher"`
}

func distinctAlgos(ops []queryOp) []string {
	var out []string
	seen := map[string]bool{}
	for _, op := range ops {
		if !seen[op.algo] {
			seen[op.algo] = true
			out = append(out, op.algo)
		}
	}
	return out
}

// isTraversal picks the single-source bfs/sssp requests: the class every
// depth below the registry entry is replayed for.
func isTraversal(op queryOp) bool {
	return op.class == "single" && (op.algo == "bfs" || op.algo == "sssp")
}

// entryRun executes op at the registry-entry depth and returns its stats.
func entryRun(ctx context.Context, e *server.GraphEntry, op queryOp) (graphmat.Stats, error) {
	p := oracleParams(op.algo, 0)
	switch op.class {
	case "single", "stream":
		p.Source = op.sources[0]
	case "multi":
		p.Sources = op.sources
	}
	if op.class == "scalar" || op.class == "stream" {
		res, err := e.RunContext(ctx, op.algo, p, nil)
		return res.Stats, err
	}
	res, err := e.RunBatch(ctx, op.algo, p, nil)
	return res.Stats, err
}

// traceServeSection replays ops at every serving depth. own says the ops are
// the workload's own list: then the engine-side metrics (core, sched, driver,
// trace overhead) are reported from here too.
func traceServeSection(ctx context.Context, p *tracedRun, in *servedInputs, ops []queryOp, own bool) error {
	opIDs := make([]int, len(ops))
	for i := range ops {
		opIDs[i] = p.tr.newOp()
	}

	// Depth 1: HTTP round trips, one client, default batch window.
	a, err := newInproc(server.Config{}, in.path)
	if err != nil {
		return err
	}
	defer a.close()
	if err := a.warm(ctx, distinctAlgos(ops), in.pool); err != nil { // build every instance before timing
		return err
	}
	// The batcher's share is measured in the same pass: each bfs request goes
	// to a second server that does not wait for company right after the
	// first, so the difference is taken between neighbours in time.
	b, err := newInproc(server.Config{BatchWindow: -1}, in.path)
	if err != nil {
		return err
	}
	defer b.close()
	if err := b.warm(ctx, []string{"bfs"}, in.pool); err != nil {
		return err
	}
	httpMS := make([]float64, len(ops))
	var batchWait, respBytes []float64
	for i, op := range ops {
		var body []byte
		var err error
		httpMS[i] = p.tr.call("POST /v1/graphs/g/run "+op.class+" "+op.algo, layerServer, opIDs[i], -1, func(int) {
			body, err = a.mustOK(ctx, runPath, op.body)
		})
		if err != nil {
			return err
		}
		p.r.Attempted++
		respBytes = append(respBytes, float64(len(body)))
		if isTraversal(op) && op.algo == "bfs" {
			noWait := p.tr.call("POST /v1/graphs/g/run (no batch window)", layerServer, opIDs[i], -1, func(int) {
				_, err = b.mustOK(ctx, runPath, op.body)
			})
			if err != nil {
				return err
			}
			batchWait = append(batchWait, httpMS[i]-noWait)
		}
	}
	p.r.set("server.batch_wait_ms", median(batchWait))
	// The same list again from two concurrent clients, for the admission
	// layer's view: how wide batches get and what the cache absorbs.
	var wg sync.WaitGroup
	errs := make([]error, queryClients)
	for cl := 0; cl < queryClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cl; i < len(ops); i += queryClients {
				if _, err := a.mustOK(ctx, runPath, ops[i].body); err != nil {
					errs[cl] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var st inprocStats
	resp, err := a.client.Get(a.ts.URL + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	p.r.set("server.resp_bytes_p50", median(respBytes))
	p.r.set("server.batch_width_mean", ratio(st.Batcher.Submitted, st.Batcher.Batches))
	p.r.set("server.coalesced_frac", ratio(st.Batcher.Coalesced, st.Batcher.Submitted))
	p.r.set("server.cache_hit_frac", ratio(st.Cache.Hits, st.Cache.Hits+st.Cache.Misses))

	// Depth 2: the registry entry, every request of the list.
	reg := server.NewRegistry(0, 0, "")
	entry, err := reg.AddCOO("g", "benchmark", in.master.Clone())
	if err != nil {
		return err
	}
	acc := newEngineAcc()
	warmed := map[string]bool{}
	for _, op := range ops { // build each instance before timing
		if warmed[op.algo] {
			continue
		}
		warmed[op.algo] = true
		if _, err := entryRun(ctx, entry, op); err != nil {
			return err
		}
	}
	acc.wakes0 = schedWakes()
	var httpSelf []float64
	for i, op := range ops {
		var stats graphmat.Stats
		var err error
		ms := p.tr.call("GraphEntry run "+op.class+" "+op.algo, layerServer, opIDs[i], -1, func(int) {
			stats, err = entryRun(ctx, entry, op)
		})
		if err != nil {
			return err
		}
		acc.add(stats, ms)
		pe, pv := elemSizes(op.algo)
		acc.bytes += touched(stats, pe, pv)
		if isTraversal(op) {
			httpSelf = append(httpSelf, httpMS[i]-ms)
		}
	}
	// Medians of per-request differences: the same request at two depths.
	p.r.set("server.http_self_ms", median(httpSelf))

	// Depths 3 and 4: the algorithms instance, then the bare run on a typed
	// graph with an observer, for the single-source traversals.
	insts := map[string]algorithms.Instance{}
	scratch := map[string]any{}
	var buildMS []float64
	for _, algo := range []string{"bfs", "sssp"} {
		spec, _ := algorithms.Lookup(algo)
		adj := in.master.Clone()
		var err error
		buildMS = append(buildMS, p.tr.call("Spec.Build "+algo, layerAlgorithms, p.tr.newOp(), -1, func(int) {
			insts[algo], err = spec.Build(adj, 0)
		}))
		if err != nil {
			return err
		}
		scratch[algo] = insts[algo].NewScratch()
	}
	p.r.set("algorithms.instance_build_ms", median(buildMS))
	bfsG, err := algorithms.NewBFSGraph(in.master.Clone(), 0)
	if err != nil {
		return err
	}
	ssspG, err := algorithms.NewSSSPGraph(in.master.Clone(), 0)
	if err != nil {
		return err
	}
	bfsWS := graphmat.NewWorkspace[uint32, uint32](int(bfsG.NumVertices()), graphmat.Bitvector)
	ssspWS := graphmat.NewWorkspace[float32, float32](int(ssspG.NumVertices()), graphmat.Bitvector)
	bare := newEngineAcc()
	var registrySelf, bareMS, untracedMS, encodeMS []float64
	for i, op := range ops {
		if !isTraversal(op) {
			continue
		}
		src := op.sources[0]
		var res algorithms.Result
		var err error
		instMS := p.tr.call("Instance.RunContext "+op.algo, layerAlgorithms, opIDs[i], -1, func(int) {
			res, err = insts[op.algo].RunContext(ctx, algorithms.Params{Source: src}, scratch[op.algo], nil)
		})
		if err != nil {
			return err
		}
		if rs, ok := scratch[op.algo].(interface{ Reset() }); ok {
			rs.Reset()
		}
		if len(encodeMS) < 12 {
			encodeMS = append(encodeMS, p.tr.call("json.Marshal(Result)", layerServer, opIDs[i], -1, func(int) {
				_, err = json.Marshal(res)
			}))
			if err != nil {
				return err
			}
		}
		runBare := func(obs graphmat.Observer) (graphmat.Stats, error) {
			if op.algo == "bfs" {
				_, st, err := algorithms.RunBFS(ctx, bfsG, src, algorithms.WithWorkspace(bfsWS), algorithms.WithObserver(obs))
				return st, err
			}
			_, st, err := algorithms.RunSSSP(ctx, ssspG, src, algorithms.WithWorkspace(ssspWS), algorithms.WithObserver(obs))
			return st, err
		}
		pe, pv := elemSizes(op.algo)
		ms, err := bare.run(p, "algorithms.Run "+op.algo, opIDs[i], -1, pe, pv, runBare)
		if err != nil {
			return err
		}
		bareMS = append(bareMS, ms)
		registrySelf = append(registrySelf, instMS-ms)
		t0 := time.Now()
		if _, err := runBare(nil); err != nil {
			return err
		}
		untracedMS = append(untracedMS, msSince(t0))
	}
	p.r.set("algorithms.registry_self_ms", median(registrySelf))
	p.r.set("server.encode_est_ms", median(encodeMS))

	if !own {
		return nil
	}
	// Counters from the entry depth (the whole list, every class); superstep
	// and driver times from the bare runs, where the observer sees them.
	acc.stepUS, acc.runSpans = bare.stepUS, bare.runSpans
	acc.report(p.r, p.tr)
	p.r.set("harness.trace_overhead_frac", overheadFrac(untracedMS, bareMS))
	denseStep(p, ssspG, algorithms.SSSPProgram{}, func(uint32) float32 { return 0 }, 5)
	if err := blockProbe(ctx, p, bfsG, in.pool, 3); err != nil {
		return err
	}
	return speedupProbe(p, "BFS on the served graph", 3, func(threads int) error {
		_, _, err := algorithms.RunBFS(ctx, bfsG, in.pool[0], algorithms.WithThreads(threads))
		return err
	})
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// traceUpdateSection replays update batches at every write-side depth: HTTP
// POST /edges on a durable in-process server, GraphEntry.ApplyEdges with its
// WAL and checkpoints, a bare Store.ApplyEdges, then the snap primitives and
// an in-process reboot of the data directory.
func traceUpdateSection(ctx context.Context, p *tracedRun, in *servedInputs, batches [][]graphmat.EdgeUpdate, bodies [][]byte) error {
	opIDs := make([]int, len(batches))
	for i := range batches {
		opIDs[i] = p.tr.newOp()
	}
	dirU := filepath.Join(p.c.tmpDir, "trace-data-http")
	dirE := filepath.Join(p.c.tmpDir, "trace-data-entry")

	// Depth 1: HTTP.
	u, err := newInproc(server.Config{DataDir: dirU}, in.path)
	if err != nil {
		return err
	}
	defer u.close()
	if err := u.warm(ctx, updateAlgos, in.pool); err != nil {
		return err
	}
	var httpMS []float64
	for i, body := range bodies {
		var err error
		httpMS = append(httpMS, p.tr.call("POST /v1/graphs/g/edges", layerServer, opIDs[i], -1, func(int) {
			_, err = u.mustOK(ctx, edgesPath, body)
		}))
		if err != nil {
			return err
		}
		p.r.Attempted++
	}

	// Depth 2: the registry entry, durable.
	reg := server.NewRegistry(0, 0, dirE)
	entry, err := reg.AddCOO("g", "benchmark", in.master.Clone())
	if err != nil {
		return err
	}
	for _, algo := range updateAlgos {
		op := queryOp{class: "scalar", algo: algo}
		if algo != "pagerank" {
			op = queryOp{class: "single", algo: algo, sources: in.pool[:1]}
		}
		if _, err := entryRun(ctx, entry, op); err != nil {
			return err
		}
	}
	var parseMS, entryMS []float64
	var overlayMax int64
	for i, body := range bodies {
		var parsed []graphmat.EdgeUpdate
		var err error
		parseMS = append(parseMS, p.tr.call("graph.ParseUpdates", layerGraph, opIDs[i], -1, func(int) {
			parsed, err = graph.ParseUpdates(body)
		}))
		if err != nil {
			return err
		}
		entryMS = append(entryMS, p.tr.call("GraphEntry.ApplyEdges", layerServer, opIDs[i], -1, func(int) {
			_, _, err = entry.ApplyEdges(parsed)
		}))
		if err != nil {
			return err
		}
		var overlay int64
		for _, as := range entry.Stats() {
			overlay += as.Store.OverlayNNZ
		}
		overlayMax = max(overlayMax, overlay)
	}
	var compactions int64
	for _, as := range entry.Stats() {
		compactions += as.Store.Compactions
	}
	p.r.set("graph.parse_updates_ms", median(parseMS))
	p.r.set("graph.compactions", float64(compactions))
	p.r.set("graph.overlay_nnz_max", float64(overlayMax))
	p.r.set("snap.checkpoints", float64(entry.PersistStats().Checkpoints))
	p.r.set("server.update_http_self_ms", median(httpMS)-median(entryMS))

	// Depth 3: one versioned store, no serving layer, no log.
	store, err := algorithms.NewSSSPStore(in.master.Clone(), 0)
	if err != nil {
		return err
	}
	var storeMS, compactMS []float64
	for i, batch := range batches {
		var err error
		storeMS = append(storeMS, p.tr.call("Store.ApplyEdges", layerGraph, opIDs[i], -1, func(int) {
			_, err = store.ApplyEdges(batch)
		}))
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < 3; rep++ {
		for _, batch := range batches[:min(8, len(batches))] { // refill the overlay
			if _, err := store.ApplyEdges(batch); err != nil {
				return err
			}
		}
		compactMS = append(compactMS, p.tr.call("Store.Compact", layerGraph, p.tr.newOp(), -1, func(int) { store.Compact() }))
	}
	p.r.set("graph.apply_ms", median(storeMS))
	p.r.set("graph.compact_ms", median(compactMS))

	// The snap primitives on the same inputs.
	walPath := filepath.Join(p.c.tmpDir, "probe.wal")
	wal, err := snap.CreateWAL(walPath)
	if err != nil {
		return err
	}
	var walMS []float64
	records := 0
	for i, batch := range batches {
		recs := make([]snap.WALUpdate, len(batch))
		for j, up := range batch {
			recs[j] = snap.WALUpdate{Src: up.Src, Dst: up.Dst, Val: up.Val, Del: up.Del}
		}
		var err error
		walMS = append(walMS, p.tr.call("WAL.Append+fsync", layerSnap, opIDs[i], -1, func(int) {
			err = wal.Append(uint64(i+1), recs)
		}))
		if err != nil {
			wal.Close()
			return err
		}
		records += len(recs)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	walInfo, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	p.r.set("snap.wal_append_ms", median(walMS))
	p.r.set("snap.wal_bytes_per_update", float64(walInfo.Size())/float64(records))

	img, err := graphmat.StoreImage(store, uint64(len(batches)))
	if err != nil {
		return err
	}
	snapPath := filepath.Join(p.c.tmpDir, "probe.snap")
	var writeMS, openMS []float64
	for rep := 0; rep < 3; rep++ {
		var err error
		writeMS = append(writeMS, p.tr.call("snap.Write", layerSnap, p.tr.newOp(), -1, func(int) {
			err = snap.Write(snapPath, img)
		}))
		if err != nil {
			return err
		}
	}
	snapInfo, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		var err error
		openMS = append(openMS, p.tr.call("snap.Open+NewStoreFromImage", layerSnap, p.tr.newOp(), -1, func(int) {
			var sf *snap.Snapshot
			if sf, err = snap.Open(snapPath); err != nil {
				return
			}
			_, err = graphmat.NewStoreFromImage[float32](sf.Image())
			sf.Close()
		}))
		if err != nil {
			return err
		}
	}
	p.r.set("snap.write_ms", median(writeMS))
	p.r.set("snap.write_mb", float64(snapInfo.Size())/(1<<20))
	p.r.set("snap.bytes_per_edge", float64(snapInfo.Size())/float64(max(img.NEdges, 1)))
	p.r.set("snap.open_ms", median(openMS))

	// Reboot the entry's data directory in-process: manifest, mmap'd
	// snapshots, replay of the batches logged since the last checkpoint.
	var rebooted *server.GraphEntry
	bootMS := p.tr.call("Registry.Add (boot from data dir)", layerSnap, p.tr.newOp(), -1, func(int) {
		rebooted, err = server.NewRegistry(0, 0, dirE).Add("g", server.Source{Path: in.path})
	})
	if err != nil {
		return err
	}
	ps := rebooted.PersistStats()
	if ps.Boot == "created" || rebooted.Epoch() != uint64(len(batches)) {
		p.r.fail("in-process reboot came up %q at epoch %d, want a snapshot boot at epoch %d", ps.Boot, rebooted.Epoch(), len(batches))
	}
	p.r.set("snap.wal_replay_ms", bootMS)
	p.r.set("snap.replayed_batches", float64(ps.ReplayedBatches))
	return nil
}

// nativeFill times whichever native kernels the workload's own replay did not
// already, on the served graph's structures, so all three yardsticks are live
// on every workload.
func nativeFill(p *tracedRun, directed, symmetric *native.Graph, roots []uint32) {
	timeIt := func(name string, fn func(root uint32)) float64 {
		var ms []float64
		for i := 0; i < min(5, len(roots)); i++ {
			ms = append(ms, nativeSpan(p, name, p.tr.newOp(), func() { fn(roots[i]) }))
		}
		return median(ms)
	}
	if _, ok := p.r.Metrics["native.pagerank_ms"]; !ok {
		p.r.set("native.pagerank_ms", timeIt("native.PageRank", func(uint32) { native.PageRank(directed, prRestart, pprIters, 0) }))
	}
	if _, ok := p.r.Metrics["native.bfs_ms"]; !ok {
		p.r.set("native.bfs_ms", timeIt("native.BFS", func(root uint32) { native.BFS(symmetric, root, 0) }))
	}
	if _, ok := p.r.Metrics["native.sssp_ms"]; !ok {
		p.r.set("native.sssp_ms", timeIt("native.SSSP", func(root uint32) { native.SSSP(directed, root, 0) }))
	}
}
