package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"graphmat"
	"graphmat/algorithms"
)

// TestWarmGraphHoldsFourStores warms a served graph with all nine algorithms,
// some before an update batch and some after it, and reads /v1/stats: the
// graph holds one store per preprocessing key, four in all, each listing the
// algorithms bound to it, and every algorithm's store view is its key's. After
// a second batch every algorithm answers bit for bit like a solo Spec.Build
// over the same raw edges, whether it built its store or was bound to one.
func TestWarmGraphHoldsFourStores(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	params := map[string]struct {
		http   map[string]any
		params algorithms.Params
	}{
		"pagerank":     {map[string]any{"iters": 12}, algorithms.Params{Iterations: 12}},
		"bfs":          {map[string]any{"source": 3}, algorithms.Params{Source: 3}},
		"sssp":         {map[string]any{"source": 7}, algorithms.Params{Source: 7}},
		"components":   {nil, algorithms.Params{}},
		"ppr":          {map[string]any{"sources": []int{1, 2}, "iters": 10}, algorithms.Params{Sources: []uint32{1, 2}, Iterations: 10}},
		"triangles":    {nil, algorithms.Params{}},
		"hits":         {map[string]any{"iters": 6}, algorithms.Params{Iterations: 6}},
		"reachability": {map[string]any{"source": 5}, algorithms.Params{Source: 5}},
		"widest":       {map[string]any{"source": 9}, algorithms.Params{Source: 9}},
	}
	if len(params) != len(algorithms.Names()) {
		t.Fatalf("the test covers %d algorithms, the registry has %d", len(params), len(algorithms.Names()))
	}

	raw := testAdj()
	graphmat.NormalizeAdjacency(raw, 1)
	update := func(seed uint64) {
		t.Helper()
		batch := genBatch(raw, 40, seed)
		var ndjson strings.Builder
		if err := graphmat.WriteUpdates(&ndjson, batch); err != nil {
			t.Fatal(err)
		}
		code, body := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges?format=ndjson", ndjson.String())
		if code != http.StatusOK {
			t.Fatalf("POST /edges = %d: %s", code, body)
		}
		var err error
		if raw, err = graphmat.ApplyToAdjacency(raw, batch); err != nil {
			t.Fatal(err)
		}
	}

	for _, algo := range []string{"pagerank", "bfs", "triangles"} {
		runAlgo(t, ts, "g", algo, params[algo].http)
	}
	update(1)
	for _, algo := range []string{"sssp", "components", "ppr", "hits", "reachability", "widest"} {
		runAlgo(t, ts, "g", algo, params[algo].http)
	}
	update(2)

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
	g := stats.Graphs["g"]
	want := []struct {
		key   string
		algos []string
		epoch uint64
	}{
		{"directed", []string{"pagerank", "ppr", "reachability", "sssp", "widest"}, 2},
		{"directed-both", []string{"hits"}, 1},
		{"symmetric", []string{"bfs", "components"}, 2},
		{"upper", []string{"triangles"}, 2},
	}
	if len(g.Stores) != len(want) {
		t.Fatalf("a graph warmed with every algorithm holds %d stores, want %d: %+v", len(g.Stores), len(want), g.Stores)
	}
	for i, w := range want {
		st := g.Stores[i]
		if st.Key != w.key || !slices.Equal(st.Algorithms, w.algos) || st.Store.Epoch != w.epoch {
			t.Errorf("store %d = %s %v at epoch %d, want %s %v at epoch %d", i, st.Key, st.Algorithms, st.Store.Epoch, w.key, w.algos, w.epoch)
		}
		for _, algo := range st.Algorithms {
			if got := g.Algorithms[algo].Store; got != st.Store {
				t.Errorf("%s reports store %+v, its %s store is %+v", algo, got, st.Key, st.Store)
			}
		}
	}

	for algo, p := range params {
		spec, _ := algorithms.Lookup(algo)
		solo, err := spec.Build(raw.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := solo.Run(p.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(algo, func(t *testing.T) { expectBitIdentical(t, runAlgo(t, ts, "g", algo, p.http), ref) })
	}
}
