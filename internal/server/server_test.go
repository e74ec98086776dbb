package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

const (
	testScale = 6
	testSeed  = 99
)

func testAdj() *sparse.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: testScale, EdgeFactor: 8, Seed: testSeed, MaxWeight: 10})
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func addTestGraph(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	code, body := do(t, ts, http.MethodPost, "/v1/graphs", map[string]any{
		"name": name, "generator": "rmat", "scale": testScale, "edgefactor": 8, "seed": testSeed, "maxweight": 10,
	})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/graphs = %d: %s", code, body)
	}
}

// do sends a request with an optional JSON body and returns status + body.
func do(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

type runReply struct {
	Graph     string               `json:"graph"`
	Algorithm string               `json:"algorithm"`
	Cached    bool                 `json:"cached"`
	Values    []float64            `json:"values"`
	Series    map[string][]float64 `json:"series"`
	Count     *int64               `json:"count"`
	Stats     graphmat.Stats       `json:"stats"`
}

func runAlgo(t *testing.T, ts *httptest.Server, graph, algo string, params map[string]any) runReply {
	t.Helper()
	code, body := do(t, ts, http.MethodPost, "/v1/graphs/"+graph+"/run/"+algo, params)
	if code != http.StatusOK {
		t.Fatalf("run %s: %d: %s", algo, code, body)
	}
	var reply runReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("decoding %s reply: %v", algo, err)
	}
	return reply
}

// direct computes the expected result by calling the algorithms package the
// way a library user would, on an identical copy of the registered graph.
func direct(t *testing.T, algo string, params algorithms.Params) algorithms.Result {
	t.Helper()
	spec, ok := algorithms.Lookup(algo)
	if !ok {
		t.Fatalf("unknown algorithm %s", algo)
	}
	inst, err := spec.Build(testAdj(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func expectBitIdentical(t *testing.T, reply runReply, want algorithms.Result) {
	t.Helper()
	if len(reply.Values) != len(want.Values) {
		t.Fatalf("values length %d, want %d", len(reply.Values), len(want.Values))
	}
	for v := range want.Values {
		if reply.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: got %v, want %v", v, reply.Values[v], want.Values[v])
		}
	}
	for name, series := range want.Series {
		got := reply.Series[name]
		if len(got) != len(series) {
			t.Fatalf("series %s length %d, want %d", name, len(got), len(series))
		}
		for v := range series {
			if got[v] != series[v] {
				t.Fatalf("series %s vertex %d: got %v, want %v", name, v, got[v], series[v])
			}
		}
	}
	if (reply.Count == nil) != (want.Count == nil) {
		t.Fatal("count presence mismatch")
	}
	if want.Count != nil && *reply.Count != *want.Count {
		t.Fatalf("count = %d, want %d", *reply.Count, *want.Count)
	}
}

// TestServeAllAlgorithms runs every registered algorithm over HTTP and
// checks the responses against direct algorithms-package calls bit for bit.
func TestServeAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	cases := []struct {
		algo   string
		http   map[string]any
		params algorithms.Params
	}{
		{"pagerank", map[string]any{"iters": 15}, algorithms.Params{Iterations: 15}},
		{"bfs", map[string]any{"source": 3}, algorithms.Params{Source: 3}},
		{"sssp", map[string]any{"source": 7}, algorithms.Params{Source: 7}},
		{"components", nil, algorithms.Params{}},
		{"ppr", map[string]any{"sources": []int{1, 2}, "iters": 10}, algorithms.Params{Sources: []uint32{1, 2}, Iterations: 10}},
		{"triangles", nil, algorithms.Params{}},
		{"hits", map[string]any{"iters": 6}, algorithms.Params{Iterations: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			reply := runAlgo(t, ts, "g", tc.algo, tc.http)
			expectBitIdentical(t, reply, direct(t, tc.algo, tc.params))
		})
	}
}

// TestConcurrentRequests fires 20 concurrent queries (4 algorithms x 5
// sources/variants) against one registered graph and checks every response
// matches the direct algorithms call bit for bit, then verifies the
// workspace pool served the runs instead of per-request allocation.
func TestConcurrentRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	type query struct {
		algo   string
		http   map[string]any
		params algorithms.Params
	}
	var queries []query
	for i := 0; i < 5; i++ {
		src := uint32(i * 3)
		queries = append(queries,
			query{"bfs", map[string]any{"source": src}, algorithms.Params{Source: src}},
			query{"sssp", map[string]any{"source": src}, algorithms.Params{Source: src}},
			query{"pagerank", map[string]any{"iters": 5 + i}, algorithms.Params{Iterations: 5 + i}},
			query{"components", nil, algorithms.Params{}},
		)
	}
	if len(queries) < 16 {
		t.Fatalf("need at least 16 concurrent queries, have %d", len(queries))
	}

	// Expected results, computed sequentially before the concurrent burst.
	want := make([]algorithms.Result, len(queries))
	for i, q := range queries {
		want[i] = direct(t, q.algo, q.params)
	}

	replies := make([]runReply, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = runAlgo(t, ts, "g", queries[i].algo, queries[i].http)
		}(i)
	}
	wg.Wait()

	for i := range queries {
		expectBitIdentical(t, replies[i], want[i])
	}

	// The identical "components" queries may be served from the result
	// cache; every computed run must have gone through the pool. Because
	// runs on one instance serialize, the pool never needs more than one
	// workspace per (graph, algorithm) — so allocations must be far below
	// the run count, proving scratch reuse rather than per-request
	// allocation.
	g, err := srv.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	var runs, allocs int64
	for algo, st := range g.Stats() {
		if st.Runs == 0 {
			t.Fatalf("%s: no runs recorded", algo)
		}
		runs += st.Runs
		allocs += st.WorkspaceAllocs
		if st.WorkspaceAllocs > st.Runs {
			t.Fatalf("%s: %d workspace allocs for %d runs", algo, st.WorkspaceAllocs, st.Runs)
		}
	}
	if runs < 16 {
		t.Fatalf("expected at least 16 computed runs, got %d", runs)
	}
	if allocs >= runs {
		t.Fatalf("workspace pool not in use: %d allocs for %d runs", allocs, runs)
	}
	// bfs ran 5 distinct sources under one serialized instance: pooled
	// scratch must have served several of them (sync.Pool may shed an item
	// across a GC cycle, so assert reuse rather than exactly one alloc).
	bfs := g.Stats()["bfs"]
	if bfs.Runs != 5 {
		t.Fatalf("bfs runs = %d, want 5", bfs.Runs)
	}
	if bfs.WorkspaceAllocs >= bfs.Runs {
		t.Fatalf("bfs workspace allocs = %d for %d runs, want pool reuse", bfs.WorkspaceAllocs, bfs.Runs)
	}
}

// TestResultCache checks that a repeated query is served from the LRU cache
// with identical values.
func TestResultCache(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	first := runAlgo(t, ts, "g", "bfs", map[string]any{"source": 2})
	if first.Cached {
		t.Fatal("first run should not be cached")
	}
	second := runAlgo(t, ts, "g", "bfs", map[string]any{"source": 2})
	if !second.Cached {
		t.Fatal("second identical run should be cached")
	}
	for v := range first.Values {
		if first.Values[v] != second.Values[v] {
			t.Fatalf("vertex %d: cached %v != computed %v", v, second.Values[v], first.Values[v])
		}
	}
	// Different thread counts share one cache entry (results are
	// deterministic across thread counts).
	third := runAlgo(t, ts, "g", "bfs", map[string]any{"source": 2, "threads": 2})
	if !third.Cached {
		t.Fatal("thread count must not fragment the cache")
	}

	var stats struct {
		Cache cacheStats `json:"cache"`
	}
	_, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits < 2 || stats.Cache.Size == 0 {
		t.Fatalf("cache stats = %+v, want >=2 hits and nonzero size", stats.Cache)
	}
}

// TestGraphLifecycle exercises register / list / get / delete and the cache
// invalidation on delete.
func TestGraphLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	if code, _ := do(t, ts, http.MethodGet, "/v1/graphs/none", nil); code != http.StatusNotFound {
		t.Fatalf("GET missing graph = %d, want 404", code)
	}
	addTestGraph(t, ts, "g")
	if code, body := do(t, ts, http.MethodPost, "/v1/graphs", map[string]any{"name": "g", "generator": "rmat", "scale": 4}); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d: %s", code, body)
	}

	code, body := do(t, ts, http.MethodGet, "/v1/graphs", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/graphs = %d", code)
	}
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" || list.Graphs[0].Vertices != 1<<testScale {
		t.Fatalf("list = %+v", list.Graphs)
	}

	runAlgo(t, ts, "g", "components", nil)
	if code, _ = do(t, ts, http.MethodDelete, "/v1/graphs/g", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code, _ = do(t, ts, http.MethodDelete, "/v1/graphs/g", nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
	if code, _ = do(t, ts, http.MethodPost, "/v1/graphs/g/run/components", nil); code != http.StatusNotFound {
		t.Fatalf("run on deleted graph = %d, want 404", code)
	}

	// Re-register under the same name: the invalidated cache must not
	// serve the old graph's results.
	addTestGraph(t, ts, "g")
	if reply := runAlgo(t, ts, "g", "components", nil); reply.Cached {
		t.Fatal("cache survived graph deletion")
	}
}

// TestBadRequests covers the API's error paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown algorithm", http.MethodPost, "/v1/graphs/g/run/nope", nil, http.StatusNotFound},
		{"unknown param", http.MethodPost, "/v1/graphs/g/run/pagerank", map[string]any{"bogus": 1}, http.StatusBadRequest},
		{"wrong param type", http.MethodPost, "/v1/graphs/g/run/bfs", map[string]any{"source": "x"}, http.StatusBadRequest},
		{"source out of range", http.MethodPost, "/v1/graphs/g/run/bfs", map[string]any{"source": 1 << 20}, http.StatusBadRequest},
		{"param not accepted", http.MethodPost, "/v1/graphs/g/run/components", map[string]any{"source": 1}, http.StatusBadRequest},
		{"scalar run, several sources", http.MethodPost, "/v1/graphs/g/run/bfs", map[string]any{"sources": []int{1, 2}}, http.StatusBadRequest},
		{"unified run, several params.sources", http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": "sssp", "params": map[string]any{"sources": []int{1, 2}}}, http.StatusBadRequest},
		{"missing source", http.MethodPost, "/v1/graphs", map[string]any{"name": "h"}, http.StatusBadRequest},
		{"bad generator", http.MethodPost, "/v1/graphs", map[string]any{"name": "h", "generator": "mystery"}, http.StatusBadRequest},
		{"empty name", http.MethodPost, "/v1/graphs", map[string]any{"generator": "rmat", "scale": 4}, http.StatusBadRequest},
		{"unknown body field", http.MethodPost, "/v1/graphs", map[string]any{"name": "h", "generator": "rmat", "scale": 4, "wat": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, ts, tc.method, tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("%s %s = %d (%s), want %d", tc.method, tc.path, code, body, tc.want)
			}
		})
	}
}

// TestParamsSourcesIsTheSource: a scalar run given a one-element
// params.sources runs from that vertex on both run endpoints — it used to be
// dropped, answering from vertex 0 with no error.
func TestParamsSourcesIsTheSource(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")
	for _, algo := range []string{"bfs", "sssp", "reachability", "widest"} {
		want := direct(t, algo, algorithms.Params{Source: 7}).Values
		perAlgo := runAlgo(t, ts, "g", algo, map[string]any{"sources": []int{7}})
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": algo, "params": map[string]any{"sources": []int{7}}})
		if code != http.StatusOK {
			t.Fatalf("%s unified run = %d: %s", algo, code, body)
		}
		var unified runReply
		if err := json.Unmarshal(body, &unified); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]float64{"run/" + algo: perAlgo.Values, "run": unified.Values} {
			if !slices.Equal(got, want) {
				t.Errorf("%s via %s with params.sources=[7] does not match a run from vertex 7", algo, name)
			}
		}
	}
}

// TestStatsEndpoint checks the /v1/stats shape: per-endpoint request tallies,
// per-algorithm engine stats and counter proxies.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")
	runAlgo(t, ts, "g", "pagerank", map[string]any{"iters": 5})
	runAlgo(t, ts, "g", "bfs", map[string]any{"source": 0})

	code, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats struct {
		UptimeSeconds float64               `json:"uptime_seconds"`
		Requests      map[string]int64      `json:"requests"`
		Graphs        map[string]GraphStats `json:"graphs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests["POST /v1/graphs/{name}/run/{algo}"] != 2 {
		t.Fatalf("run endpoint tally = %d, want 2 (%v)", stats.Requests["POST /v1/graphs/{name}/run/{algo}"], stats.Requests)
	}
	if stats.Requests["POST /v1/graphs"] != 1 {
		t.Fatalf("register tally = %v", stats.Requests)
	}
	if stats.Graphs["g"].Epoch != 0 || stats.Graphs["g"].UpdatesApplied != 0 {
		t.Fatalf("pristine graph reports update traffic: %+v", stats.Graphs["g"])
	}
	pr := stats.Graphs["g"].Algorithms["pagerank"]
	if pr.Runs != 1 || pr.Engine.Iterations != 5 || pr.Counters.WorkItems == 0 {
		t.Fatalf("pagerank stats = %+v", pr)
	}
	bfs := stats.Graphs["g"].Algorithms["bfs"]
	if bfs.Runs != 1 || bfs.Engine.EdgesProcessed == 0 {
		t.Fatalf("bfs stats = %+v", bfs)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, ts, http.MethodGet, "/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d: %s", code, body)
	}
}

// TestAlgorithmsEndpoint checks the discovery listing.
func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, ts, http.MethodGet, "/v1/algorithms", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/algorithms = %d", code)
	}
	var list struct {
		Algorithms []algorithmInfo `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Algorithms) != len(algorithms.Names()) {
		t.Fatalf("listed %d algorithms, registry has %d", len(list.Algorithms), len(algorithms.Names()))
	}
	found := false
	for _, a := range list.Algorithms {
		if a.Name == "bfs" {
			found = true
			if len(a.Params) == 0 || a.Params[0].Name != "source" || a.Params[0].Kind != "uint" {
				t.Fatalf("bfs params = %+v", a.Params)
			}
		}
	}
	if !found {
		t.Fatal("bfs missing from listing")
	}
}

// TestLoadFromFile registers a graph from an .mtx file written to disk.
func TestLoadFromFile(t *testing.T) {
	_, ts := newTestServer(t)
	path := t.TempDir() + "/tiny.mtx"
	mtx := "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 2 1.0\n2 3 2.0\n3 4 1.5\n4 1 1.0\n"
	if err := os.WriteFile(path, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, ts, http.MethodPost, "/v1/graphs", map[string]any{"name": "tiny", "path": path})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/graphs = %d: %s", code, body)
	}
	reply := runAlgo(t, ts, "tiny", "sssp", map[string]any{"source": 0})
	want := []float64{0, 1, 3, 4.5}
	for v := range want {
		if reply.Values[v] != want[v] {
			t.Fatalf("sssp[%d] = %v, want %v", v, reply.Values[v], want[v])
		}
	}
}
