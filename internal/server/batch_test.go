package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"graphmat"
	"graphmat/algorithms"
)

// splitNDJSON splits a response body into its non-empty NDJSON lines.
func splitNDJSON(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// Tests of the v1 API surface: /v1-only routing, the unified run endpoint's
// scalar/batch forms, and the admission batcher's coalescing differential —
// coalesced responses must be payload-identical (values, epoch) to
// uncoalesced ones.

// TestV1OnlyRouting checks that every endpoint the OpenAPI document lists
// answers under /v1 and that its unversioned form is a plain 404: the
// pre-versioning aliases are gone, not deprecated.
func TestV1OnlyRouting(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/stats", "", http.StatusOK},
		{http.MethodGet, "/algorithms", "", http.StatusOK},
		{http.MethodGet, "/openapi.json", "", http.StatusOK},
		{http.MethodGet, "/graphs", "", http.StatusOK},
		{http.MethodPost, "/graphs", `{"name":"h","generator":"rmat","scale":4}`, http.StatusCreated},
		{http.MethodGet, "/graphs/{name}", "", http.StatusOK},
		{http.MethodPost, "/graphs/{name}/edges", "add 0 1\n", http.StatusOK},
		{http.MethodPost, "/graphs/{name}/run", `{"algo":"bfs","sources":[3]}`, http.StatusOK},
		{http.MethodPost, "/graphs/{name}/run/{algo}", `{"source":3}`, http.StatusOK},
		{http.MethodDelete, "/graphs/{name}", "", http.StatusOK}, // last: it removes the graph the rows above use
	}
	fill := strings.NewReplacer("{name}", "h", "{algo}", "bfs")
	for _, tc := range cases {
		path := fill.Replace(tc.path)
		if code, body := doRaw(t, ts, tc.method, path, tc.body); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404 (unversioned routes are removed): %s", tc.method, path, code, body)
		}
		if code, body := doRaw(t, ts, tc.method, "/v1"+path, tc.body); code != tc.want {
			t.Errorf("%s /v1%s = %d, want %d: %s", tc.method, path, code, tc.want, body)
		}
	}

	// The case list is the whole API: every (method, path) the OpenAPI
	// document describes has a row above.
	_, body := do(t, ts, http.MethodGet, "/v1/openapi.json", nil)
	var doc struct {
		Paths map[string]map[string]any `json:"paths"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	for path, methods := range doc.Paths {
		for method := range methods {
			covered := false
			for _, tc := range cases {
				covered = covered || (strings.EqualFold(tc.method, method) && "/v1"+tc.path == path)
			}
			if !covered {
				t.Errorf("%s %s is served but has no routing case", strings.ToUpper(method), path)
			}
		}
	}
}

// TestAPIListingsMatchParentGolden pins the two self-describing endpoints to
// the bytes served by the commit before the registry became one generic
// instance (testdata/*.parent.json, captured from a live daemon): the table
// rewrite must not change a name, a description, a parameter, its order or a
// batchable flag. The single permitted difference is the OpenAPI sentence
// about the unversioned aliases, which were removed in the same change.
func TestAPIListingsMatchParentGolden(t *testing.T) {
	_, ts := newTestServer(t)
	const aliasSentence = " Unversioned paths are deprecated aliases of /v1 and answer with a Deprecation header."
	for path, golden := range map[string]string{
		"/v1/algorithms":   "testdata/v1_algorithms.parent.json",
		"/v1/openapi.json": "testdata/v1_openapi.parent.json",
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.Replace(want, []byte(aliasSentence), nil, 1)
		code, got := do(t, ts, http.MethodGet, path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s:\n got: %s\nwant: %s", path, golden, got, want)
		}
	}
}

// TestOpenAPIDocument sanity-checks GET /v1/openapi.json: well-formed, all
// v1 paths present, and the run schema's algorithm enum tracks the registry.
func TestOpenAPIDocument(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, ts, http.MethodGet, "/v1/openapi.json", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/openapi.json = %d", code)
	}
	var doc struct {
		OpenAPI string         `json:"openapi"`
		Paths   map[string]any `json:"paths"`
		Comp    struct {
			Schemas struct {
				RunRequest struct {
					Properties struct {
						Algo struct {
							Enum []string `json:"enum"`
						} `json:"algo"`
					} `json:"properties"`
				} `json:"RunRequest"`
			} `json:"schemas"`
		} `json:"components"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding openapi document: %v", err)
	}
	if doc.OpenAPI == "" {
		t.Fatal("missing openapi version field")
	}
	for _, p := range []string{
		"/v1/healthz", "/v1/stats", "/v1/algorithms", "/v1/graphs",
		"/v1/graphs/{name}", "/v1/graphs/{name}/edges",
		"/v1/graphs/{name}/run", "/v1/graphs/{name}/run/{algo}", "/v1/openapi.json",
	} {
		if _, ok := doc.Paths[p]; !ok {
			t.Fatalf("path %s missing from openapi document (have %d paths)", p, len(doc.Paths))
		}
	}
	names := algorithms.Names()
	if len(doc.Comp.Schemas.RunRequest.Properties.Algo.Enum) != len(names) {
		t.Fatalf("algo enum = %v, registry has %v", doc.Comp.Schemas.RunRequest.Properties.Algo.Enum, names)
	}
}

type batchReply struct {
	Graph     string         `json:"graph"`
	Algorithm string         `json:"algorithm"`
	Sources   []uint32       `json:"sources"`
	Values    [][]float64    `json:"values"`
	Stats     graphmat.Stats `json:"stats"`
	Epoch     uint64         `json:"epoch"`
}

// TestRunV1Unified exercises the unified endpoint's forms: scalar params,
// multi-source batch (bit-identical per source to direct scalar runs), and
// the error paths.
func TestRunV1Unified(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	// Scalar form: params in the body document, no sources.
	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
		map[string]any{"algo": "bfs", "params": map[string]any{"source": 3}})
	if code != http.StatusOK {
		t.Fatalf("scalar v1 run = %d: %s", code, body)
	}
	var scalar runReply
	if err := json.Unmarshal(body, &scalar); err != nil {
		t.Fatal(err)
	}
	expectBitIdentical(t, scalar, direct(t, "bfs", algorithms.Params{Source: 3}))

	// Multi-source form: every algorithm that declares Batchable, against
	// per-source direct oracles.
	sources := []uint32{0, 3, 7, 11, 19}
	for _, algo := range []string{"bfs", "sssp", "ppr", "reachability", "widest"} {
		req := map[string]any{"algo": algo, "sources": sources}
		if algo == "ppr" {
			req["params"] = map[string]any{"iters": 10}
		}
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", req)
		if code != http.StatusOK {
			t.Fatalf("%s batch run = %d: %s", algo, code, body)
		}
		var batch batchReply
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Values) != len(sources) {
			t.Fatalf("%s: %d series for %d sources", algo, len(batch.Values), len(sources))
		}
		for i, src := range sources {
			want := direct(t, algo, algorithms.Params{Source: src, Iterations: 10})
			for v := range want.Values {
				if batch.Values[i][v] != want.Values[v] {
					t.Fatalf("%s source %d vertex %d: got %v, want %v", algo, src, v, batch.Values[i][v], want.Values[v])
				}
			}
		}
	}

	// Error paths.
	cases := []struct {
		name string
		req  map[string]any
		want int
	}{
		{"unknown algorithm", map[string]any{"algo": "nope"}, http.StatusNotFound},
		{"non-batchable with sources", map[string]any{"algo": "pagerank", "sources": []int{1, 2}}, http.StatusBadRequest},
		{"bad mode", map[string]any{"algo": "bfs", "mode": "sideways", "sources": []int{1}}, http.StatusBadRequest},
		{"bad param", map[string]any{"algo": "bfs", "params": map[string]any{"bogus": 1}}, http.StatusBadRequest},
		{"negative timeout", map[string]any{"algo": "bfs", "timeout_ms": -5}, http.StatusBadRequest},
		{"source out of range", map[string]any{"algo": "bfs", "sources": []int{1 << 20}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", tc.req)
		if code != tc.want {
			t.Fatalf("%s: code %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}
}

// TestRunV1Coalescing is the serving half of the batching differential:
// single-source v1 requests that arrive while a run holds the instance must
// coalesce into one shared block run AND return exactly the payload (values,
// epoch) an uncoalesced server produces. Holding the instance while the
// burst arrives makes the batch exact on any scheduler; the uncoalesced
// oracle runs with batching disabled.
func TestRunV1Coalescing(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")
	g, done, err := srv.reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer done()

	solo := New(Config{BatchWindow: -1}) // coalescing disabled: width-1 batches
	soloTS := httptest.NewServer(solo)
	t.Cleanup(soloTS.Close)
	addTestGraph(t, soloTS, "g")

	sources := []uint32{0, 3, 6, 9, 12, 15, 18, 21}
	type v1Reply struct {
		runReply
		Coalesced bool   `json:"coalesced"`
		Epoch     uint64 `json:"epoch"`
	}
	replies := make([]v1Reply, len(sources))
	release := holdInstance(t, g, "bfs")
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src uint32) {
			defer wg.Done()
			code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
				map[string]any{"algo": "bfs", "sources": []uint32{src}})
			if code != http.StatusOK {
				t.Errorf("source %d: code %d: %s", src, code, body)
				return
			}
			if err := json.Unmarshal(body, &replies[i]); err != nil {
				t.Error(err)
			}
		}(i, src)
	}
	waitSubmitted(t, srv.batcher, int64(len(sources)))
	release()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, src := range sources {
		// Uncoalesced oracle: same request against the batching-disabled
		// server; payloads must match on values and epoch. (Stats legitimately
		// differ — a coalesced run's stats aggregate the whole batch.)
		code, body := do(t, soloTS, http.MethodPost, "/v1/graphs/g/run",
			map[string]any{"algo": "bfs", "sources": []uint32{src}})
		if code != http.StatusOK {
			t.Fatalf("solo source %d: code %d: %s", src, code, body)
		}
		var want v1Reply
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if want.Coalesced {
			t.Fatalf("source %d: batching-disabled server reported coalescing", src)
		}
		if len(replies[i].Values) != len(want.Values) {
			t.Fatalf("source %d: %d values vs %d", src, len(replies[i].Values), len(want.Values))
		}
		for v := range want.Values {
			if replies[i].Values[v] != want.Values[v] {
				t.Fatalf("source %d vertex %d: coalesced %v != uncoalesced %v", src, v, replies[i].Values[v], want.Values[v])
			}
		}
		if replies[i].Epoch != want.Epoch {
			t.Fatalf("source %d: epoch %d vs %d", src, replies[i].Epoch, want.Epoch)
		}
		if !replies[i].Coalesced {
			t.Errorf("source %d: reply not coalesced, though it arrived behind a held instance", src)
		}
	}

	// The admission layer's own accounting: 8 admitted, one width-8 run.
	if bs := srv.batcher.stats(); bs != (batcherStats{Submitted: int64(len(sources)), Batches: 1, Coalesced: int64(len(sources))}) {
		t.Fatalf("batcher stats = %+v, want %d requests in one coalesced batch", bs, len(sources))
	}

	// And the per-instance tallies surface the batching.
	st := g.Stats()["bfs"]
	if st.BatchRuns != 1 || st.BatchedSources != int64(len(sources)) {
		t.Fatalf("bfs batch tallies = %+v, want %d sources in one run", st, len(sources))
	}
}

// TestRunV1SingleSourceDisabledBatcher pins the width-1 fallback: with
// coalescing off, a sources=[v] request still answers in the scalar shape,
// bit-identical to the direct run.
func TestRunV1SingleSourceDisabledBatcher(t *testing.T) {
	srv := New(Config{BatchWindow: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")

	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
		map[string]any{"algo": "sssp", "sources": []int{5}})
	if code != http.StatusOK {
		t.Fatalf("run = %d: %s", code, body)
	}
	var reply runReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	expectBitIdentical(t, reply, direct(t, "sssp", algorithms.Params{Source: 5}))
}

// TestRunV1BatchStream checks the streaming batch form: progress lines then
// a final batch-shaped line, values bit-identical per source.
func TestRunV1BatchStream(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run",
		map[string]any{"algo": "bfs", "sources": []int{2, 4}, "stream": true})
	if code != http.StatusOK {
		t.Fatalf("stream run = %d: %s", code, body)
	}
	lines := splitNDJSON(t, body)
	if len(lines) < 2 {
		t.Fatalf("expected progress + final lines, got %d", len(lines))
	}
	var final batchReply
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("decoding final line: %v", err)
	}
	if len(final.Values) != 2 {
		t.Fatalf("final line has %d series, want 2", len(final.Values))
	}
	for i, src := range []uint32{2, 4} {
		want := direct(t, "bfs", algorithms.Params{Source: src})
		for v := range want.Values {
			if final.Values[i][v] != want.Values[v] {
				t.Fatalf("source %d vertex %d: got %v, want %v", src, v, final.Values[i][v], want.Values[v])
			}
		}
	}
}
