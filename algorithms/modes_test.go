package algorithms

import (
	"context"
	"math"
	"slices"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// Algorithm-level mode differential: for every traversal and ranking driver
// the registry serves, pull, push and auto must produce bit-identical result
// series (compared as float64 bit patterns — "close enough" would hide a
// fold-order divergence) and identical engine work tallies — except that the
// two FirstMessageFinal programs, bfs and reachability, may do less work
// where a pulling superstep gathered by rows (sameTallies states both
// cases). The per-superstep y-vector differential lives in internal/core;
// this level proves the whole driver stack — preprocessing, workspaces,
// multi-run sessions — is mode-oblivious too.

// modeGoldens returns adversarial edge sets: the RMAT stand-in plus the
// shapes that historically break frontier kernels (empty frontier via an
// isolated source, full frontiers, self-loops, isolated vertices).
func modeGoldens() map[string]func() *graphmat.COO[float32] {
	return map[string]func() *graphmat.COO[float32]{
		"rmat": func() *graphmat.COO[float32] {
			return gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
		},
		"self_loops_ring": func() *graphmat.COO[float32] {
			c := graphmat.NewCOO[float32](200)
			for v := uint32(0); v < 200; v++ {
				c.Add(v, v, 1)
				c.Add(v, (v+1)%200, 2)
				c.Add(v, (v*31+7)%200, 3)
			}
			return c
		},
		"isolated_tail": func() *graphmat.COO[float32] {
			// Edges among the first 100 of 640 vertices; vertex 0 is the
			// hub, everything past 100 is isolated.
			c := graphmat.NewCOO[float32](640)
			for v := uint32(1); v < 100; v++ {
				c.Add(0, v, 1)
				c.Add(v, (v*17)%100, 2)
			}
			return c
		},
	}
}

// modeRun executes one registry algorithm under an explicit mode and returns
// the uniform result.
func modeRun(t *testing.T, algo string, build func() *graphmat.COO[float32], p Params) Result {
	t.Helper()
	spec, ok := Lookup(algo)
	if !ok {
		t.Fatalf("algorithm %s not registered", algo)
	}
	inst, err := spec.Build(build(), 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameSeries(t *testing.T, what string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(ref), len(got))
	}
	for v := range ref {
		if math.Float64bits(ref[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: value[%d] differs: %v (%x) vs %v (%x)",
				what, v, ref[v], math.Float64bits(ref[v]), got[v], math.Float64bits(got[v]))
		}
	}
}

// TestAlgorithmsModeDifferential sweeps every registered algorithm × goldens
// (for the traversals: from a connected root and — where the graph has one —
// an isolated root, the empty-frontier-after-one-superstep case). Forced push
// is the reference: it folds every frontier edge whatever the program.
func TestAlgorithmsModeDifferential(t *testing.T) {
	algos := []struct {
		name   string
		params Params
	}{
		{"bfs", Params{Source: 0}},
		{"sssp", Params{Source: 0}},
		{"pagerank", Params{Iterations: 15}},
		{"ppr", Params{Sources: []uint32{0, 3}, Iterations: 15}},
		{"components", Params{}},
		{"triangles", Params{}},
		{"hits", Params{Iterations: 12}},
		{"reachability", Params{Source: 0}},
		{"widest", Params{Source: 0}},
	}
	for name, build := range modeGoldens() {
		for _, a := range algos {
			t.Run(name+"/"+a.name, func(t *testing.T) {
				pull, push, auto := a.params, a.params, a.params
				pull.Mode = graphmat.Pull
				push.Mode = graphmat.Push
				auto.Mode = graphmat.Auto
				ref := modeRun(t, a.name, build, push)
				if ref.Stats.RowSupersteps != 0 {
					t.Errorf("%s (push): %d row-walk supersteps under forced push", a.name, ref.Stats.RowSupersteps)
				}
				for mode, res := range map[string]Result{
					"pull": modeRun(t, a.name, build, pull),
					"auto": modeRun(t, a.name, build, auto),
				} {
					sameSeries(t, a.name+" values ("+mode+")", ref.Values, res.Values)
					for series := range ref.Series {
						sameSeries(t, a.name+" series "+series+" ("+mode+")", ref.Series[series], res.Series[series])
					}
					if (ref.Count == nil) != (res.Count == nil) || (ref.Count != nil && *res.Count != *ref.Count) {
						t.Errorf("%s (%s): count %v vs push %v", a.name, mode, res.Count, ref.Count)
					}
					sameTallies(t, a.name+" ("+mode+" vs push)", a.name, ref.Stats, res.Stats)
				}
			})
		}
	}
}

// hubOf returns the vertex of adj with the most non-loop out-edges: on the
// RMAT goldens, a root inside the giant component.
func hubOf(adj *graphmat.COO[float32]) uint32 {
	hub, outDeg := uint32(0), make([]int, adj.NRows)
	for _, e := range adj.Entries {
		if e.Row != e.Col {
			if outDeg[e.Row]++; outDeg[e.Row] > outDeg[hub] {
				hub = e.Row
			}
		}
	}
	return hub
}

// TestRowWalkScope holds the row walk to where it belongs, for both programs
// that declare FirstMessageFinal. From the hub of the RMAT golden's giant
// component, pull and auto must gather — and then examine fewer edge slots
// and apply fewer values than push, with the same answer — while forced push
// and the boxed oracle never do and agree with each other on every tally.
// From an isolated root no frontier ever outweighs the unsettled graph: no
// mode gathers and all tallies are equal. (That no other program ever runs
// it is TestAlgorithmsModeDifferential's sameTallies.)
func TestRowWalkScope(t *testing.T) {
	type runFn func(root uint32, opt Option) ([]uint32, graphmat.Stats)
	// runner builds one algorithm's graph and returns its run function.
	runner := func(build func(*graphmat.COO[float32], int) (*graphmat.Graph[uint32, float32], error),
		run func(context.Context, *graphmat.Graph[uint32, float32], uint32, ...Option) ([]uint32, graphmat.Stats, error),
	) func(adj *graphmat.COO[float32]) runFn {
		return func(adj *graphmat.COO[float32]) runFn {
			g, err := build(adj, 6)
			if err != nil {
				t.Fatal(err)
			}
			return func(root uint32, opt Option) ([]uint32, graphmat.Stats) {
				out, stats, err := run(context.Background(), g, root, opt)
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
		}
	}
	runners := map[string]func(adj *graphmat.COO[float32]) runFn{
		"bfs":          runner(NewBFSGraph, RunBFS),
		"reachability": runner(NewReachabilityGraph, RunReachability),
	}
	hub := hubOf(modeGoldens()["rmat"]())
	boxed := WithConfig(graphmat.Config{Dispatch: graphmat.Boxed})
	for algo, open := range runners {
		t.Run(algo, func(t *testing.T) {
			run := open(modeGoldens()["rmat"]())
			ref, push := run(hub, WithMode(graphmat.Push))
			oracle, boxedStats := run(hub, boxed)
			if !slices.Equal(oracle, ref) {
				t.Errorf("hub: forced push and the boxed oracle disagree")
			}
			sameTallies(t, "hub boxed vs push", algo, push, boxedStats)
			if push.RowSupersteps != 0 || boxedStats.RowSupersteps != 0 {
				t.Errorf("hub: row-walk supersteps under forced push (%d) or on the boxed path (%d)", push.RowSupersteps, boxedStats.RowSupersteps)
			}
			for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Auto} {
				got, stats := run(hub, WithMode(mode))
				if !slices.Equal(got, ref) {
					t.Errorf("hub %s: result differs from forced push", mode)
				}
				sameTallies(t, "hub "+mode.String()+" vs push", algo, push, stats)
				if stats.RowSupersteps == 0 || stats.EdgesProcessed >= push.EdgesProcessed {
					t.Errorf("hub %s: %d row-walk supersteps, %d edge slots against push's %d: the giant component's dense supersteps should gather", mode, stats.RowSupersteps, stats.EdgesProcessed, push.EdgesProcessed)
				}
			}

			run = open(modeGoldens()["isolated_tail"]())
			_, push = run(600, WithMode(graphmat.Push))
			for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Auto} {
				_, stats := run(600, WithMode(mode))
				sameTallies(t, "isolated root "+mode.String()+" vs push", algo, push, stats)
				if stats.RowSupersteps != 0 {
					t.Errorf("isolated root %s: %d row-walk supersteps", mode, stats.RowSupersteps)
				}
			}
		})
	}
}

// TestFlatFoldScopedToDenseFrontiers holds the pull walk's flat fold to the
// supersteps it is for. A single-root traversal's frontier rarely fills a
// column batch: forced onto the push walk it never folds flat, and under
// Auto only the chance full batch of a mid-run pull superstep does — under
// 1 % of the edges. The RMAT fixtures take both walks under Auto. The grid
// takes only one: its row partitions each store a band of columns, so a push
// lookup reaches about one partition per vertex, and SSSP's wave never
// outbids a sweep of every column — Auto is forced Push there, tally for
// tally. (What the all-active algorithms report is asserted in
// TestAllActiveDifferential.) The last input is the other side of the scope:
// PageRank on RMAT-12 is all-active, and folds every edge flat — at the
// default partition count and at one partition on two workers alike, since a
// multiply task is always a whole partition.
func TestFlatFoldScopedToDenseFrontiers(t *testing.T) {
	cases := map[string]struct {
		algo  string
		build func() *graphmat.COO[float32]
		mixes bool // Auto takes both walks
	}{
		"grid_sssp": {"sssp", func() *graphmat.COO[float32] {
			return gen.Grid(gen.GridOptions{Width: 96, Height: 96, Seed: 5})
		}, false},
		"rmat_bfs":  {"bfs", modeGoldens()["rmat"], true},
		"rmat_sssp": {"sssp", modeGoldens()["rmat"], true},
	}
	for name, c := range cases {
		// One worker: every pull task spans its partition's rows, so no
		// batch is kept off the flat fold by row clipping.
		push := modeRun(t, c.algo, c.build, Params{Source: 1, Mode: graphmat.Push, Threads: 1})
		if push.Stats.FlatEdges != 0 {
			t.Errorf("%s: push supersteps folded %d edges flat", name, push.Stats.FlatEdges)
		}
		auto := modeRun(t, c.algo, c.build, Params{Source: 1, Mode: graphmat.Auto, Threads: 1})
		if c.mixes && (auto.Stats.PushSupersteps == 0 || auto.Stats.PullSupersteps == 0) {
			t.Fatalf("%s: fixture took %d push and %d pull supersteps, want both", name, auto.Stats.PushSupersteps, auto.Stats.PullSupersteps)
		}
		if !c.mixes {
			auto.Stats.Sched, push.Stats.Sched = graphmat.SchedStats{}, graphmat.SchedStats{}
			if auto.Stats != push.Stats {
				t.Errorf("%s: Auto's tallies differ from forced Push's\nauto %+v\npush %+v", name, auto.Stats, push.Stats)
			}
		}
		if flat, edges := auto.Stats.FlatEdges, auto.Stats.EdgesProcessed; flat*100 > edges {
			t.Errorf("%s: FlatEdges = %d of %d edges under Auto, want at most 1%%", name, flat, edges)
		}
	}

	spec, _ := Lookup("pagerank")
	adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 16, Seed: 42, MaxWeight: 10})
	for _, c := range []struct{ parts, threads int }{{0, 0}, {1, 2}} {
		inst, err := spec.Build(adj.Clone(), c.parts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Run(Params{Iterations: 3, Threads: c.threads}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if flat, edges := res.Stats.FlatEdges, res.Stats.EdgesProcessed; edges == 0 || flat != edges {
			t.Errorf("rmat12_pagerank partitions %d threads %d: FlatEdges = %d of %d edges, want all", c.parts, c.threads, flat, edges)
		}
	}
}

// TestBFSIsolatedRootModes is the empty-frontier traversal: the source sends
// but nothing receives, so the run converges after one superstep in every
// mode with the root at distance 0 and everything else unreached.
func TestBFSIsolatedRootModes(t *testing.T) {
	build := modeGoldens()["isolated_tail"]
	for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto} {
		res := modeRun(t, "bfs", build, Params{Source: 600, Mode: mode})
		if res.Values[600] != 0 {
			t.Errorf("%s: root distance %v", mode, res.Values[600])
		}
		for v, d := range res.Values {
			if v != 600 && d != float64(Unreached) {
				t.Errorf("%s: vertex %d reached (%v) from isolated root", mode, v, d)
			}
		}
	}
}

// TestModeParamParsing covers the registry's global "mode" parameter.
func TestModeParamParsing(t *testing.T) {
	spec, _ := Lookup("bfs")
	p, err := spec.ParseParams(map[string]any{"source": float64(3), "mode": "push"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != graphmat.Push || p.Source != 3 {
		t.Errorf("parsed %+v", p)
	}
	if _, err := spec.ParseParams(map[string]any{"mode": "sideways"}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := spec.ParseParams(map[string]any{"mode": 7.0}); err == nil {
		t.Error("numeric mode accepted")
	}
	// Mode must not change the cache key: bit-identical results are shared.
	a, _ := spec.ParseParams(map[string]any{"source": float64(1), "mode": "push"})
	b, _ := spec.ParseParams(map[string]any{"source": float64(1), "mode": "pull"})
	if a.Key() != b.Key() {
		t.Errorf("mode leaked into cache key: %q vs %q", a.Key(), b.Key())
	}
}
