package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

// endlessPageRank is a PageRank request that cannot finish by itself, the
// workload the cancellation tests interrupt: no rank change is ever <= the
// negative tolerance, so no vertex deactivates and the run goes on for the
// ten million supersteps it asks for. (Left to converge, PageRank on
// slowGraph reaches a float64 fixed point after 221 supersteps — a tenth of
// a second, less than the timeouts and sleeps below.)
func endlessPageRank() map[string]any {
	return map[string]any{"iters": 10000000, "tolerance": -1}
}

// slowGraph registers the RMAT graph the cancellation tests run
// endlessPageRank on.
func slowGraph(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	code, body := do(t, ts, http.MethodPost, "/v1/graphs", map[string]any{
		"name": name, "generator": "rmat", "scale": 14, "edgefactor": 8, "seed": testSeed,
	})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/graphs = %d: %s", code, body)
	}
}

// TestStreamMatchesBlocking runs the same PageRank query once blocking and
// once with stream=1, and checks the NDJSON stream: one progress line per
// superstep with strictly increasing iteration numbers, then a final line
// whose values match the blocking response bit for bit.
func TestStreamMatchesBlocking(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	blocking := runAlgo(t, ts, "g", "pagerank", map[string]any{"iters": 7})

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"iters": 7}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/g/run/pagerank?stream=1", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress []streamProgress
	var final *runReply
	dec := json.NewDecoder(resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			break
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", raw, err)
		}
		if _, isFinal := probe["graph"]; isFinal {
			if final != nil {
				t.Fatal("more than one final line")
			}
			final = &runReply{}
			if err := json.Unmarshal(raw, final); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if errMsg, isErr := probe["error"]; isErr {
			t.Fatalf("stream reported error: %s", errMsg)
		}
		if final != nil {
			t.Fatal("progress line after the final line")
		}
		var p streamProgress
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		progress = append(progress, p)
	}
	if final == nil {
		t.Fatal("stream ended without a final line")
	}

	if len(progress) != blocking.Stats.Iterations {
		t.Fatalf("%d progress lines for %d supersteps", len(progress), blocking.Stats.Iterations)
	}
	for i, p := range progress {
		if p.Iteration != i+1 {
			t.Fatalf("progress[%d].Iteration = %d, want strictly increasing from 1", i, p.Iteration)
		}
		if p.Active == 0 {
			t.Fatalf("progress[%d] has empty frontier", i)
		}
	}
	if final.Stats.Reason != blocking.Stats.Reason || final.Stats.Iterations != blocking.Stats.Iterations {
		t.Fatalf("final stats %+v != blocking stats %+v", final.Stats, blocking.Stats)
	}
	if len(final.Values) != len(blocking.Values) {
		t.Fatalf("final has %d values, blocking %d", len(final.Values), len(blocking.Values))
	}
	for v := range blocking.Values {
		if final.Values[v] != blocking.Values[v] {
			t.Fatalf("vertex %d: stream %v != blocking %v", v, final.Values[v], blocking.Values[v])
		}
	}

	// The streamed result was published to the cache: the same blocking
	// query must now be served from it.
	if again := runAlgo(t, ts, "g", "pagerank", map[string]any{"iters": 7}); !again.Cached {
		t.Fatal("streamed result not cached")
	}
}

// TestRunTimeoutMS checks that a per-request timeout_ms aborts a long run
// with 504 instead of letting it occupy the instance.
func TestRunTimeoutMS(t *testing.T) {
	_, ts := newTestServer(t)
	slowGraph(t, ts, "big")

	start := time.Now()
	code, body := do(t, ts, http.MethodPost,
		"/v1/graphs/big/run/pagerank?timeout_ms=150", endlessPageRank())
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", code, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timed-out run returned after %s", elapsed)
	}

	if code, body := do(t, ts, http.MethodPost, "/v1/graphs/big/run/pagerank?timeout_ms=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms = %d (%s), want 400", code, body)
	}
}

// TestClientDisconnectCancelsRun starts a run that would take minutes,
// disconnects the client, and proves the engine aborted by running a second
// query on the same (graph, algorithm) instance — runs serialize on the
// instance lock, so the second query completing quickly means the first one
// let go.
func TestClientDisconnectCancelsRun(t *testing.T) {
	_, ts := newTestServer(t)
	slowGraph(t, ts, "big")

	// Build the pagerank instance up front so the abandoned request's time
	// is spent inside the engine, not the graph build.
	runAlgo(t, ts, "big", "pagerank", map[string]any{"iters": 1})

	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(endlessPageRank()); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/graphs/big/run/pagerank", &buf)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(300 * time.Millisecond) // let the run get going
	cancel()                           // client walks away

	// The follow-up query blocks on the same instance lock until the
	// abandoned run aborts; without cancellation it would wait for all ten
	// million supersteps.
	done := make(chan runReply, 1)
	go func() { done <- runAlgo(t, ts, "big", "pagerank", map[string]any{"iters": 2}) }()
	select {
	case reply := <-done:
		if reply.Stats.Iterations != 2 {
			t.Fatalf("follow-up ran %d supersteps, want 2", reply.Stats.Iterations)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follow-up query still blocked 30s after the disconnect: run was not canceled")
	}
}

// TestRegistryRunContextReason checks the typed stop reason surfaces through
// the server registry's context path.
func TestRegistryRunContextReason(t *testing.T) {
	srv, ts := newTestServer(t)
	addTestGraph(t, ts, "g")
	g, release, err := srv.reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	params := algorithms.Params{Iterations: 3}
	res, err := g.RunContext(context.Background(), "pagerank", params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Reason != graphmat.MaxIterations {
		t.Fatalf("Reason = %v, want max_iterations", res.Stats.Reason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = g.RunContext(ctx, "pagerank", params, nil)
	if !errors.Is(err, context.Canceled) || res.Stats.Reason != graphmat.Canceled {
		t.Fatalf("pre-canceled run: err = %v, Reason = %v", err, res.Stats.Reason)
	}
}
