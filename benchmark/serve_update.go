package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphmat"
)

// serve_update: graphmatd -data-dir on the same RMAT-16 file, with bfs, sssp
// and pagerank instances built during warm-up. One writer connection posts
// NDJSON batches back to back while one reader connection issues
// single-source queries; then the daemon is SIGKILLed after the last ack and
// restarted on the same directory. The only workload where snap works, and
// the one where a read-side gain that taxes writers (or the reverse) shows.
// Durability is SIGKILL-only: the OS cache survives, so this checks the
// daemon's ordering, not the device's.

var updateAlgos = []string{"bfs", "sssp", "pagerank"}

const (
	minCompactions = 5 // a run with fewer saw too little background work
	minCheckpoints = 3
	restartChecks  = 8 // post-restart bfs and sssp sources each
	readerChecks   = 6 // reader replies replayed against their epoch's edge set
)

// daemonStats is the slice of GET /v1/stats the workload reads.
type daemonStats struct {
	Graphs map[string]struct {
		Epoch      uint64 `json:"epoch"`
		Algorithms map[string]struct {
			Store graphmat.StoreStats `json:"store"`
		} `json:"algorithms"`
		Persist *struct {
			Boot            string `json:"boot"`
			Checkpoints     int64  `json:"checkpoints"`
			CheckpointErrs  int64  `json:"checkpoint_errors"`
			ReplayedBatches int64  `json:"replayed_batches"`
		} `json:"persist"`
	} `json:"graphs"`
}

func runServeUpdate(ctx context.Context, c *config, r *result) error {
	in, err := buildServed(c)
	if err != nil {
		return err
	}
	nBatches := c.count(21, 24)
	batches, bodies, err := updateBatches(c.seed, in.master, c.sz.batchSize, nBatches)
	if err != nil {
		return err
	}
	// More reader requests than the writer can outlast; the reader stops
	// when the writer does.
	readerOps := readerMix(c.seed, in.pool, 64*nBatches)

	directed, symmetric := servedNatives(in)
	nat := &servedNative{directed, symmetric}

	dataDir := func(i int) string { return filepath.Join(c.tmpDir, fmt.Sprintf("data-%d", i)) }
	d, setupRawS, setupS, err := startWarm(ctx, c, in, nat, updateAlgos, setupRepeats, func(i int) []string {
		return []string{"-data-dir", dataDir(i)}
	})
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	liveDir := dataDir(setupRepeats - 1)

	var (
		mu         sync.Mutex
		wg         sync.WaitGroup
		writerDone atomic.Bool
		updateMS   []float64
		reads      []sample
		kept       []observed
	)
	measureStart := time.Now()
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer writerDone.Store(true)
		for i, body := range bodies {
			if ctx.Err() != nil {
				return
			}
			t0 := time.Now()
			code, reply, err := d.post(ctx, edgesPath, body, true)
			ms := msSince(t0)
			var ack struct {
				Epoch uint64 `json:"epoch"`
			}
			mu.Lock()
			r.Attempted++
			switch {
			case err != nil:
				r.fail("update batch %d: %v", i, err)
			case code != http.StatusOK:
				r.fail("update batch %d: status %d: %s", i, code, reply)
			case json.Unmarshal(reply, &ack) != nil || ack.Epoch != uint64(i+1):
				r.fail("update batch %d acknowledged as epoch %d", i, ack.Epoch)
			default:
				updateMS = append(updateMS, ms)
			}
			mu.Unlock()
		}
	}()
	go func() { // reader
		defer wg.Done()
		reads, kept = runClient(ctx, d, nat, readerOps, r, &mu, writerDone.Load)
	}()
	wg.Wait()
	writerWall := time.Since(measureStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}

	var st daemonStats
	if err := d.getJSON("/v1/stats", &st); err != nil {
		return fmt.Errorf("reading daemon stats: %v; stderr:\n%s", err, d.logTail())
	}
	g := st.Graphs["g"]
	var compactions int64
	for _, a := range g.Algorithms {
		compactions += a.Store.Compactions
	}
	if g.Persist == nil {
		return fmt.Errorf("daemon started with -data-dir reports no persistence block")
	}
	// The registration checkpoint and the three instance captures happen in
	// warm-up; the counter below is the process total.
	if !c.smoke && (compactions < minCompactions || g.Persist.Checkpoints < minCheckpoints) {
		r.invalid("%d compactions and %d checkpoints; need %d and %d", compactions, g.Persist.Checkpoints, minCompactions, minCheckpoints)
	}
	if g.Persist.CheckpointErrs != 0 {
		r.fail("daemon reports %d checkpoint errors", g.Persist.CheckpointErrs)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading daemon VmHWM: %v; stderr:\n%s", err, d.logTail())
	}

	// Crash after the last ack, restart on the same directory, and time the
	// first correct answer.
	final, err := adjacencyAt(in.master, batches, len(batches))
	if err != nil {
		return err
	}
	finalOracle := newServedOracle(final)
	firstOp := queryOp{class: "single", algo: "bfs", sources: in.pool[len(in.pool)-1:]}
	firstOp.body = runBody("bfs", firstOp.sources, false)
	wantFirst, err := finalOracle.hash("bfs", firstOp.sources[0]) // built before the kill: not part of restart_s
	if err != nil {
		return err
	}
	bin, err := buildDaemon(c.root)
	if err != nil {
		return err
	}
	killAt := time.Now()
	d.kill()
	d, err = startDaemon(bin, filepath.Join(c.tmpDir, "graphmatd-restart.log"), "-graph", "g="+in.path, "-data-dir", liveDir)
	if err != nil {
		return err
	}
	code, body, err := d.post(ctx, runPath, firstOp.body, true)
	restartS := time.Since(killAt).Seconds()
	r.Attempted++
	if err != nil || code != http.StatusOK {
		r.fail("first query after restart: status %d, %v", code, err)
	} else if ob, err := decodeRun(firstOp, body); err != nil || ob.hashes[0] != wantFirst {
		r.fail("first bfs answer after restart differs from the post-last-ack state (%v)", err)
	}
	if err := d.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	if p := st.Graphs["g"].Persist; p == nil || p.Boot == "created" {
		r.fail("restarted daemon re-parsed the source instead of booting from its data directory")
	}
	if got := st.Graphs["g"].Epoch; got != uint64(len(batches)) {
		r.fail("restarted daemon is at epoch %d, want %d", got, len(batches))
	}
	for i := 0; i < restartChecks && i < len(in.pool); i++ {
		for _, algo := range []string{"bfs", "sssp"} {
			op := queryOp{class: "single", algo: algo, sources: in.pool[i : i+1]}
			op.body = runBody(algo, op.sources, false)
			code, body, err := d.post(ctx, runPath, op.body, true)
			r.Attempted++
			if err != nil || code != http.StatusOK {
				r.fail("post-restart %s: status %d, %v", algo, code, err)
				continue
			}
			ob, err := decodeRun(op, body)
			if err == nil {
				err = finalOracle.check(ob)
			}
			if err != nil {
				r.fail("post-restart durability: %v", err)
			}
		}
	}
	d.kill()

	// Reader replies against the edge set of the epoch each one ran on.
	step := max(len(kept)/readerChecks, 1)
	checked := 0
	for i := 0; i < len(kept) && checked < readerChecks; i += step {
		ob := kept[i]
		if ob.epoch > uint64(len(batches)) {
			r.fail("reader reply claims epoch %d of %d", ob.epoch, len(batches))
			continue
		}
		adj, err := adjacencyAt(in.master, batches, int(ob.epoch))
		if err != nil {
			return err
		}
		if err := newServedOracle(adj).check(ob); err != nil {
			r.fail("%v", err)
		}
		checked++
	}

	readMS := byClass(reads, "single")
	r.Samples["update"] = updateMS
	samplesByAlgo(r, reads, "single")
	index := servedSpeedIndex(reads) // gated times are at reference speed
	r.set("setup_s", setupS)
	r.set("primary_ms", median(updateMS)*index)
	r.set("secondary_ms", classLatency(reads, "single")*index)
	r.set("native_ratio", servedNativeRatio(reads))
	r.set("peak_rss_mb", rss)
	r.set("speed_index", index)
	r.set("setup_raw_s", setupRawS)
	r.set("update_ms_p50", median(updateMS))
	if len(updateMS) >= 200 {
		r.set("update_ms_p95", percentile(updateMS, 95))
	}
	r.set("update_edges_per_s", float64(len(updateMS)*c.sz.batchSize)/writerWall)
	r.set("query_ms_p50", median(readMS))
	if len(readMS) >= 200 {
		r.set("query_ms_p95", percentile(readMS, 95))
	}
	r.set("queries_per_s", float64(len(readMS))/writerWall)
	r.set("restart_s", restartS)
	r.set("compactions", float64(compactions))
	r.set("checkpoints", float64(g.Persist.Checkpoints))
	r.set("samples_primary", float64(len(updateMS)))
	r.set("samples_secondary", float64(len(readMS)))
	r.set("measured_s", writerWall)
	r.note("1 writer x %d batches x %d updates beside 1 reader; %d reader replies replayed at their epoch, %d post-restart answers checked",
		len(bodies), c.sz.batchSize, checked, 2*restartChecks+1)
	r.note("native_ratio compares reader latency with the native kernels on the epoch-0 edge set")
	return nil
}
