package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

// Tests of the served width-1 path: a single-source request that shared its
// admission window with nobody is a one-column block run — which the engine
// executes on the scalar phases — so it is tallied as a batch of one, draws
// nothing from the scalar workspace pool, and answers with exactly the scalar
// run's payload and stats, whichever of the three ways in it took.

func algoStats(t *testing.T, ts *httptest.Server, graph, algo string) AlgoStats {
	t.Helper()
	code, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats struct {
		Graphs map[string]GraphStats `json:"graphs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	return stats.Graphs[graph].Algorithms[algo]
}

func TestWidth1BatchRunsOnTheScalarEngine(t *testing.T) {
	ways := map[string]struct {
		cfg  Config
		body func(src int) map[string]any
	}{
		"admission batcher":  {Config{}, func(src int) map[string]any { return map[string]any{"sources": []int{src}} }},
		"batcher off":        {Config{BatchWindow: -1}, func(src int) map[string]any { return map[string]any{"sources": []int{src}} }},
		"streamed batch run": {Config{}, func(src int) map[string]any { return map[string]any{"sources": []int{src}, "stream": true} }},
	}
	for way, w := range ways {
		t.Run(way, func(t *testing.T) {
			ts := httptest.NewServer(New(w.cfg))
			t.Cleanup(ts.Close)
			addTestGraph(t, ts, "g")
			const requests = 6
			for _, algo := range []string{"bfs", "sssp", "ppr"} {
				for src := 0; src < requests; src++ {
					body := w.body(src)
					body["algo"] = algo
					code, raw := do(t, ts, http.MethodPost, "/v1/graphs/g/run", body)
					if code != http.StatusOK {
						t.Fatalf("%s source %d = %d: %s", algo, src, code, raw)
					}
					lines := splitNDJSON(t, raw)
					want := direct(t, algo, algorithms.Params{Source: uint32(src)})
					var stats graphmat.Stats
					if body["stream"] == true {
						var reply batchReply
						if err := json.Unmarshal(lines[len(lines)-1], &reply); err != nil {
							t.Fatal(err)
						}
						expectBitIdentical(t, runReply{Values: reply.Values[0]}, want)
						stats = reply.Stats
					} else {
						var reply runReply
						if err := json.Unmarshal(lines[0], &reply); err != nil {
							t.Fatal(err)
						}
						expectBitIdentical(t, reply, want)
						stats = reply.Stats
					}
					// The reply's stats are the scalar engine's for this run
					// alone, not a block run's.
					stats.Sched, want.Stats.Sched = graphmat.SchedStats{}, graphmat.SchedStats{}
					if stats != want.Stats {
						t.Fatalf("%s source %d: stats %+v, the scalar run's are %+v", algo, src, stats, want.Stats)
					}
				}
				st := algoStats(t, ts, "g", algo)
				if st.BatchRuns != requests || st.BatchedSources != requests || st.Runs != 0 {
					t.Fatalf("%s tallies after %d lone requests: %+v", algo, requests, st)
				}
				if st.WorkspaceAllocs != 0 {
					t.Errorf("%s: a batch-only workload drew %d scalar workspaces from the pool", algo, st.WorkspaceAllocs)
				}
			}

			// A wider batch is tallied the same way and draws no workspace
			// from the pool either.
			code, raw := do(t, ts, http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": "bfs", "sources": []int{1, 2, 3}})
			if code != http.StatusOK {
				t.Fatalf("k=3 = %d: %s", code, raw)
			}
			st := algoStats(t, ts, "g", "bfs")
			if st.BatchRuns != requests+1 || st.BatchedSources != requests+3 || st.WorkspaceAllocs != 0 {
				t.Fatalf("bfs tallies after a k=3 run: %+v", st)
			}
		})
	}
}

// TestRunBatchUnsupportedDrawsNoWorkspace: the entry refuses a batch run of
// an algorithm with no source and leaves no tally behind.
func TestRunBatchUnsupportedDrawsNoWorkspace(t *testing.T) {
	reg := NewRegistry(0, 1, "")
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunBatch(t.Context(), "pagerank", algorithms.Params{}, nil); err != algorithms.ErrBatchUnsupported {
		t.Fatalf("RunBatch(pagerank) error = %v, want ErrBatchUnsupported", err)
	}
	if st := entry.Stats()["pagerank"]; st.WorkspaceAllocs != 0 || st.BatchRuns != 0 {
		t.Fatalf("refused batch run left tallies %+v", st)
	}
}

// TestWidth1RacesBlockRunsScalarRunsAndUpdates drives everything that can
// touch one instance at once — lone single-source requests through the
// admission batcher (a one-column block run on an admission-time pin), k=16
// requests (a 16-column one), the per-algorithm route (scalar engine, result
// cache) and update batches publishing new epochs under all of them — and
// checks every reply against an oracle instance stepped through the same
// batches: the values must be the ones of the epoch the reply names. Batch
// runs of any width keep their vertex state in per-run scratch; only the
// scalar route writes a pinned snapshot's. Under -race this is the proof the
// three coexist on one instance.
func TestWidth1RacesBlockRunsScalarRunsAndUpdates(t *testing.T) {
	const (
		algo    = "sssp"
		batches = 12
		readers = 3
	)
	adj := persistTestAdj(256)
	srv := New(Config{BatchWindow: time.Millisecond})
	if _, err := srv.reg.AddCOO("g", "seed", adj.Clone()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	sources := make([]uint32, 16)
	for i := range sources {
		sources[i] = uint32(i * 13)
	}
	updates := make([][]algorithms.EdgeUpdate, batches)
	for b := range updates {
		for j := 0; j < 20; j++ {
			u := algorithms.EdgeUpdate{Src: uint32((b*31 + j*7) % 256), Dst: uint32((b*17 + j*29 + 1) % 256), Val: float32(1 + (b+j)%5)}
			u.Del = j%4 == 3
			updates[b] = append(updates[b], u)
		}
	}

	// The oracle: want[epoch][i] is the answer from sources[i] at that epoch.
	spec, _ := algorithms.Lookup(algo)
	oracle, err := spec.Build(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]float64, batches+1)
	for epoch := 0; ; epoch++ {
		for _, src := range sources {
			res, err := oracle.Run(algorithms.Params{Source: src}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[epoch] = append(want[epoch], res.Values)
		}
		if epoch == batches {
			break
		}
		if _, err := oracle.ApplyUpdates(updates[epoch], nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, epoch uint64, i int, got []float64) error {
		if epoch > batches {
			return fmt.Errorf("%s: epoch %d was never published", what, epoch)
		}
		ref := want[epoch][i]
		if len(got) != len(ref) {
			return fmt.Errorf("%s: %d values, want %d", what, len(got), len(ref))
		}
		for v := range ref {
			if got[v] != ref[v] {
				return fmt.Errorf("%s at epoch %d, source %d: value[%d] = %v, the oracle says %v", what, epoch, sources[i], v, got[v], ref[v])
			}
		}
		return nil
	}

	// Build the instance before the writer starts, so instance epochs and
	// entry epochs count the same batches.
	if code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": algo, "sources": []uint32{0}}); code != http.StatusOK {
		t.Fatalf("warm-up = %d: %s", code, body)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	post := func(path string, body any, into any) error { // no t.Fatal: runs on reader goroutines
		sent, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(sent))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s = %d: %s", path, resp.StatusCode, raw)
		}
		return json.Unmarshal(raw, into)
	}
	type epochReply struct {
		Values []float64 `json:"values"`
		Epoch  uint64    `json:"epoch"`
	}
	for r := 0; r < readers; r++ {
		wg.Add(3)
		go func() { // lone single-source requests: admission pin, width-1 flush
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := n % len(sources)
				var reply epochReply
				err := post("/v1/graphs/g/run", map[string]any{"algo": algo, "sources": sources[i : i+1]}, &reply)
				if err == nil {
					err = check("width-1", reply.Epoch, i, reply.Values)
				}
				fail(err)
			}
		}()
		go func() { // k=16: the k-wide block sinks
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var reply struct {
					Values [][]float64 `json:"values"`
					Epoch  uint64      `json:"epoch"`
				}
				err := post("/v1/graphs/g/run", map[string]any{"algo": algo, "sources": sources}, &reply)
				for i := 0; err == nil && i < len(sources); i++ {
					err = check("k=16", reply.Epoch, i, reply.Values[i])
				}
				fail(err)
			}
		}()
		go func() { // the per-algorithm route: scalar run via finishRun
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := (n * 5) % len(sources)
				var reply epochReply
				err := post("/v1/graphs/g/run/"+algo, map[string]any{"source": sources[i]}, &reply)
				if err == nil {
					err = check("scalar route", reply.Epoch, i, reply.Values)
				}
				fail(err)
			}
		}()
	}
	for b, batch := range updates {
		var body strings.Builder
		for _, u := range batch {
			if u.Del {
				fmt.Fprintf(&body, "{\"src\":%d,\"dst\":%d,\"del\":true}\n", u.Src, u.Dst)
			} else {
				fmt.Fprintf(&body, "{\"src\":%d,\"dst\":%d,\"weight\":%v}\n", u.Src, u.Dst, u.Val)
			}
		}
		if code, raw := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges", body.String()); code != http.StatusOK {
			t.Fatalf("batch %d = %d: %s", b, code, raw)
		}
		time.Sleep(2 * time.Millisecond) // let readers land on this epoch too
	}
	close(done)
	wg.Wait()

	// Admission flushes, batch runs wider than one source, scalar runs, every
	// epoch.
	st, flushes := algoStats(t, ts, "g", algo), srv.batcher.stats().Batches
	if flushes == 0 || st.BatchedSources == st.BatchRuns || st.Runs == 0 || st.Store.Epoch != batches {
		t.Fatalf("the mix did not exercise every path: %d admission flushes, %+v", flushes, st)
	}
}
