package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// ssspBlockProg is ssspProg declared DstIndependent — the program the
// multi-source differential tests drive. The block engine folds with its
// ProcessMessage and Reduce, so scalar runs are the oracle.
type ssspBlockProg struct{ ssspProg }

func (ssspBlockProg) ProcessIgnoresDst() {}

// blockTestGraph builds a small RMAT-derived weighted graph.
func blockTestGraph(t testing.TB, nparts int) *graph.Graph[float32, float32] {
	t.Helper()
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 7, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32, float32](adj, graph.Options{Partitions: nparts})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBlockSSSPMatchesScalar asserts the core contract of the block engine:
// a k-source block run is bit-identical per column to k scalar runs, in every
// kernel mode, on the same graph.
func TestBlockSSSPMatchesScalar(t *testing.T) {
	g := blockTestGraph(t, 4)
	n := int(g.NumVertices())
	sources := []uint32{0, 3, 17, 42, 100, 101, 200, 255}
	k := len(sources)

	// Scalar oracle: one run per source on the same graph.
	oracle := make([][]float32, k)
	for s, src := range sources {
		g.SetAllProps(inf)
		g.SetProp(src, 0)
		g.ClearActive()
		g.SetActive(src)
		if _, err := Run(g, ssspProg{}, Config{Mode: Pull}); err != nil {
			t.Fatal(err)
		}
		dist := make([]float32, n)
		copy(dist, g.Props())
		oracle[s] = dist
	}

	for _, mode := range []Mode{Pull, Push, Auto} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("mode_%s_threads_%d", mode, threads), func(t *testing.T) {
				st := NewBlockState[float32](n, k)
				st.SetAllProps(inf)
				for s, src := range sources {
					st.SetProp(src, s, 0)
					st.Activate(src, s)
				}
				stats, err := RunBlock(g, ssspBlockProg{}, st, Config{Mode: mode, Threads: threads}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Reason != Converged {
					t.Fatalf("block run did not converge: %+v", stats)
				}
				col := make([]float32, n)
				for s := range sources {
					st.Column(s, col)
					for v := range col {
						if col[v] != oracle[s][v] {
							t.Fatalf("source %d: dist[%d] = %v, want %v", sources[s], v, col[v], oracle[s][v])
						}
					}
				}
			})
		}
	}
}

// singleColumnCase runs program p from one start state on the scalar engine
// and on the block engine at k=1 and holds the two to each other: properties
// bit for bit, Stats field for field (Sched is wall-clock dependent).
func singleColumnCase[V comparable, M, R any, P interface {
	Program[V, float32, M, R]
	DstIndependent
}](
	t *testing.T, g *graph.Graph[V, float32], p P, cfg Config, start func(*session[V, M, R, P]),
) Stats {
	t.Helper()
	var props [2][]V
	var stats [2]Stats
	for i, fe := range []frontEnd{scalarFE, block1FE} {
		s := newSession(fe, g, p)
		start(s)
		st, err := s.run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Sched = SchedStats{}
		props[i], stats[i] = s.props(), st
	}
	if !slices.Equal(props[0], props[1]) {
		t.Fatal("k=1 block run's properties differ from the scalar run's")
	}
	if stats[0] != stats[1] {
		t.Fatalf("k=1 block stats are not the scalar engine's:\nblock  %+v\nscalar %+v", stats[1], stats[0])
	}
	return stats[0]
}

// TestBlockSingleColumn pins the k=1 case to the scalar engine: a one-column
// block run executes the scalar phases, so nothing but where the vertex
// state lives distinguishes the two — the flat fold's share of the edges
// included, which no k-wide block sink reports.
func TestBlockSingleColumn(t *testing.T) {
	g := blockTestGraph(t, 3)
	for _, mode := range []Mode{Auto, Pull, Push} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("sssp/mode_%s_threads_%d", mode, threads), func(t *testing.T) {
				singleColumnCase(t, g, ssspBlockProg{}, Config{Mode: mode, Threads: threads},
					func(s *session[float32, float32, float32, ssspBlockProg]) {
						s.reset(inf, 5)
						s.setProp(5, 0)
					})
			})
		}
	}
	t.Run("all_active_sum_fold", func(t *testing.T) {
		adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 7})
		gf, err := graph.NewFromCOO[float64, float32](adj, graph.Options{Partitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		stats := singleColumnCase(t, gf, sumFoldProg{}, Config{Mode: Pull, Threads: 1, MaxIterations: 3},
			func(s *session[float64, float64, float64, sumFoldProg]) { s.reset(1) })
		if stats.FlatEdges == 0 {
			t.Fatalf("the case must fold some edges flat to tell the sinks apart: %+v", stats)
		}
	})
}

// TestBlockSingleColumnAccessors: at k=1 the summary bit is column 0 and
// there are no per-vertex masks, before a run and after one; every accessor
// answers as a one-column block would.
func TestBlockSingleColumnAccessors(t *testing.T) {
	g := blockTestGraph(t, 2)
	n := int(g.NumVertices())
	st := NewBlockState[float32](n, 1)
	if st.ActiveColumns() != 0 {
		t.Fatal("fresh state has a live column")
	}
	st.SetAllProps(inf)
	st.SetProp(9, 0, 0)
	st.Activate(9, 0)
	st.Activate(9, 0)
	if st.ActiveColumns() != 1 || st.summary.Count() != 1 || st.Prop(9, 0) != 0 {
		t.Fatalf("after Activate(9, 0): columns %b, %d active", st.ActiveColumns(), st.summary.Count())
	}
	st.ClearActive()
	st.ActivateAllMask(0)
	if st.ActiveColumns() != 0 {
		t.Fatal("ActivateAllMask(0) activated something")
	}
	st.ActivateAllMask(1)
	if st.ActiveColumns() != 1 || st.summary.Count() != n {
		t.Fatalf("ActivateAllMask(1): columns %b, %d of %d active", st.ActiveColumns(), st.summary.Count(), n)
	}
	st.ClearActive()
	st.Activate(9, 0)

	ws := NewBlockWorkspace[float32, float32](n, 1)
	if _, err := RunBlock(g, ssspBlockProg{}, st, Config{}, ws); err != nil {
		t.Fatal(err)
	}
	if st.ActiveColumns() != 0 {
		t.Fatal("a converged column is still live")
	}
	col := make([]float32, n)
	st.Column(0, col)
	if !slices.Equal(col, st.props) || col[9] != 0 {
		t.Fatal("Column(0) is not the property column")
	}

	x := ws.x
	x.Reset()
	if v, e := x.Occupancy(); v != 0 || e != 0 || x.ColMask(3) != 0 {
		t.Fatalf("reset vector: occupancy %d/%d, ColMask(3) %b", v, e, x.ColMask(3))
	}
	x.Set(3, 0, 1.5)
	x.Set(200, 0, 2.5)
	x.Set(3, 0, 3.5)
	if v, e := x.Occupancy(); v != 2 || e != 2 {
		t.Fatalf("occupancy %d vertices / %d entries, want 2/2", v, e)
	}
	if x.ColMask(3) != 1 || x.ColMask(4) != 0 || x.Row(3)[0] != 3.5 || len(x.Row(200)) != 1 {
		t.Fatalf("ColMask(3)=%b ColMask(4)=%b Row(3)=%v", x.ColMask(3), x.ColMask(4), x.Row(3))
	}
}

// TestSingleColumnBlockAllocation is the guard on the k=1 representation,
// without a clock: a one-column state and workspace allocate the property
// column, two value arrays and three n-bit masks — not the two n×8 B
// per-vertex column-mask arrays and the n×8 B active-mask array a wider block
// needs (which would add 24 B per vertex to the 12.4 B counted here; the
// slack of 1 B per vertex absorbs what other goroutines allocate meanwhile).
func TestSingleColumnBlockAllocation(t *testing.T) {
	const n = 1 << 16
	var st *BlockState[float32]
	var ws *BlockWorkspace[float32, float32]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, ws = NewBlockState[float32](n, 1), NewBlockWorkspace[float32, float32](n, 1)
	runtime.ReadMemStats(&after)
	want := uint64(3*4*n + 3*n/8)
	if got := after.TotalAlloc - before.TotalAlloc; got > want+n {
		t.Fatalf("k=1 state + workspace over %d vertices allocated %d B, want about %d", n, got, want)
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(ws)
}

// TestBlockWorkspaceReuse runs twice through one workspace, asserting the
// second run is unpolluted by the first.
func TestBlockWorkspaceReuse(t *testing.T) {
	g := blockTestGraph(t, 2)
	n := int(g.NumVertices())
	ws := NewBlockWorkspace[float32, float32](n, 2)
	want := make([][]float32, 2)
	for round := 0; round < 2; round++ {
		st := NewBlockState[float32](n, 2)
		st.SetAllProps(inf)
		for s, src := range []uint32{9, 27} {
			st.SetProp(src, s, 0)
			st.Activate(src, s)
		}
		if _, err := RunBlock(g, ssspBlockProg{}, st, Config{}, ws); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			col := make([]float32, n)
			st.Column(s, col)
			if round == 0 {
				want[s] = col
				continue
			}
			for v := range col {
				if col[v] != want[s][v] {
					t.Fatalf("round 2 source %d: dist[%d] = %v, want %v", s, v, col[v], want[s][v])
				}
			}
		}
	}
}
