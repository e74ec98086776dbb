package algorithms_test

import (
	"context"
	"testing"

	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

func testCOO() *sparse.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
}

func buildInstance(t *testing.T, name string) (algorithms.Spec, algorithms.Instance) {
	t.Helper()
	spec, ok := algorithms.Lookup(name)
	if !ok {
		t.Fatalf("algorithm %q not registered", name)
	}
	inst, err := spec.Build(testCOO(), 0)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return spec, inst
}

func TestRegistryNames(t *testing.T) {
	want := []string{"bfs", "components", "hits", "pagerank", "ppr", "reachability", "sssp", "triangles", "widest"}
	got := algorithms.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestRegistryMatchesDirectCalls runs every registry algorithm and checks the
// uniform Result against the direct package function on the same input.
func TestRegistryMatchesDirectCalls(t *testing.T) {
	t.Run("pagerank", func(t *testing.T) {
		_, inst := buildInstance(t, "pagerank")
		res, err := inst.Run(algorithms.Params{Iterations: 15}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewPageRankGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(15))
		if err != nil {
			t.Fatal(err)
		}
		compareFloat64(t, res.Values, want)
	})
	t.Run("bfs", func(t *testing.T) {
		_, inst := buildInstance(t, "bfs")
		res, err := inst.Run(algorithms.Params{Source: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewBFSGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunBFS(context.Background(), g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != float64(want[v]) {
				t.Fatalf("vertex %d: got %v, want %d", v, res.Values[v], want[v])
			}
		}
	})
	t.Run("sssp", func(t *testing.T) {
		_, inst := buildInstance(t, "sssp")
		res, err := inst.Run(algorithms.Params{Source: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewSSSPGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunSSSP(context.Background(), g, 5)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != float64(want[v]) {
				t.Fatalf("vertex %d: got %v, want %v", v, res.Values[v], want[v])
			}
		}
	})
	t.Run("components", func(t *testing.T) {
		_, inst := buildInstance(t, "components")
		res, err := inst.Run(algorithms.Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewCCGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunConnectedComponents(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != float64(want[v]) {
				t.Fatalf("vertex %d: got %v, want %d", v, res.Values[v], want[v])
			}
		}
	})
	t.Run("ppr", func(t *testing.T) {
		_, inst := buildInstance(t, "ppr")
		res, err := inst.Run(algorithms.Params{Sources: []uint32{1, 2}, Iterations: 10}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewPersonalizedPageRankGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunPersonalizedPageRank(context.Background(), g, []uint32{1, 2}, algorithms.WithIterations(10))
		if err != nil {
			t.Fatal(err)
		}
		compareFloat64(t, res.Values, want)
	})
	t.Run("triangles", func(t *testing.T) {
		_, inst := buildInstance(t, "triangles")
		res, err := inst.Run(algorithms.Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewTriangleGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunTriangleCount(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count == nil || *res.Count != want {
			t.Fatalf("count = %v, want %d", res.Count, want)
		}
	})
	t.Run("hits", func(t *testing.T) {
		_, inst := buildInstance(t, "hits")
		res, err := inst.Run(algorithms.Params{Iterations: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := algorithms.NewHITSGraph(testCOO(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunHITS(context.Background(), g, algorithms.WithIterations(8))
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Series["hub"][v] != want[v].Hub || res.Series["auth"][v] != want[v].Auth {
				t.Fatalf("vertex %d: got hub=%v auth=%v, want %+v", v, res.Series["hub"][v], res.Series["auth"][v], want[v])
			}
		}
	})
}

// TestScratchReuse checks that reusing one scratch across runs gives
// bit-identical results to fresh allocation — the property a library caller
// that passes NewScratch's value to every run depends on.
func TestScratchReuse(t *testing.T) {
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			_, inst := buildInstance(t, name)
			p := algorithms.Params{Source: 2, Iterations: 10}
			fresh, err := inst.Run(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			scratch := inst.NewScratch()
			for round := 0; round < 3; round++ {
				res, err := inst.Run(p, scratch)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				compareResults(t, res, fresh)
			}
		})
	}
}

func TestParseParams(t *testing.T) {
	pr, _ := algorithms.Lookup("pagerank")
	bfs, _ := algorithms.Lookup("bfs")
	ppr, _ := algorithms.Lookup("ppr")

	p, err := pr.ParseParams(map[string]any{"iters": float64(20), "tolerance": 1e-9, "restart": 0.2, "threads": float64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations != 20 || p.Tolerance != 1e-9 || p.RestartProb != 0.2 || p.Threads != 2 {
		t.Fatalf("parsed %+v", p)
	}

	if _, err := pr.ParseParams(map[string]any{"source": float64(1)}); err == nil {
		t.Fatal("pagerank should reject source")
	}
	if _, err := bfs.ParseParams(map[string]any{"source": 1.5}); err == nil {
		t.Fatal("fractional source should be rejected")
	}
	if _, err := bfs.ParseParams(map[string]any{"source": float64(-1)}); err == nil {
		t.Fatal("negative source should be rejected")
	}
	if _, err := bfs.ParseParams(map[string]any{"source": float64(1 << 32)}); err == nil {
		t.Fatal("source beyond uint32 must be rejected, not truncated")
	}
	if _, err := pr.ParseParams(map[string]any{"iters": 1e19}); err == nil {
		t.Fatal("iters beyond uint32 must be rejected, not wrapped")
	}
	if _, err := bfs.ParseParams(map[string]any{"source": "zero"}); err == nil {
		t.Fatal("non-numeric source should be rejected")
	}
	if _, err := ppr.ParseParams(map[string]any{"sources": "1,2"}); err == nil {
		t.Fatal("non-list sources should be rejected")
	}
	p, err = ppr.ParseParams(map[string]any{"sources": []any{float64(1), float64(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sources) != 2 || p.Sources[0] != 1 || p.Sources[1] != 2 {
		t.Fatalf("parsed sources %v", p.Sources)
	}
}

func TestParamsKeyCanonical(t *testing.T) {
	a := algorithms.Params{Source: 1, Iterations: 10, Threads: 1}
	b := algorithms.Params{Source: 1, Iterations: 10, Threads: 8}
	if a.Key() != b.Key() {
		t.Fatalf("thread count must not affect the cache key: %q vs %q", a.Key(), b.Key())
	}
	c := algorithms.Params{Source: 2, Iterations: 10}
	if a.Key() == c.Key() {
		t.Fatalf("different sources must produce different keys: %q", a.Key())
	}
}

func compareFloat64(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: got %v, want %v", v, got[v], want[v])
		}
	}
}

func compareResults(t *testing.T, got, want algorithms.Result) {
	t.Helper()
	compareFloat64(t, got.Values, want.Values)
	for name, series := range want.Series {
		compareFloat64(t, got.Series[name], series)
	}
	if (got.Count == nil) != (want.Count == nil) {
		t.Fatalf("count presence mismatch")
	}
	if got.Count != nil && *got.Count != *want.Count {
		t.Fatalf("count = %d, want %d", *got.Count, *want.Count)
	}
}
