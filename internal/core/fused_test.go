package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// After a run's first superstep, each apply phase sends the next superstep's
// messages (phaseSet.apply). A run capped at one superstep never does, so a
// chain of MaxIterations: 1 runs, each resumed from the active set the last
// one left, takes the standalone send phase on every superstep. The tests
// below hold the two to the same answer and tallies, and pin that no run
// sends a message it does not count. An AllVerticesActive program never
// fuses; its chain re-activates every live column between runs, which is
// the step its single run takes between supersteps.

// ccProg is min-label propagation: every active vertex broadcasts its label
// and receivers keep the smallest.
type ccProg struct{}

func (ccProg) SendMessage(_ VertexID, prop uint32) (uint32, bool)  { return prop, true }
func (ccProg) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }
func (ccProg) Reduce(a, b uint32) uint32                           { return min(a, b) }
func (ccProg) Apply(r uint32, _ VertexID, prop *uint32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}
func (ccProg) Direction() graph.Direction { return graph.Out }
func (ccProg) ProcessIgnoresDst()         {}

// rankProg is PageRank over float64 ranks, declaring AllVerticesActive: every
// vertex with out-edges sends rank × inv[v], its reciprocal out-degree, and
// Apply reports whether the rank moved by more than tol.
type rankProg struct {
	inv []float64
	tol float64
}

func (p rankProg) SendMessage(v VertexID, prop float64) (float64, bool) {
	return prop * p.inv[v], p.inv[v] != 0
}
func (rankProg) ProcessMessage(m float64, _ float32, _ float64) float64 { return m }
func (rankProg) Reduce(a, b float64) float64                            { return a + b }
func (p rankProg) Apply(sum float64, _ VertexID, prop *float64) bool {
	next := 0.15 + 0.85*sum
	changed := math.Abs(next-*prop) > p.tol
	*prop = next
	return changed
}
func (rankProg) Direction() graph.Direction { return graph.Out }
func (rankProg) ProcessIgnoresDst()         {}
func (rankProg) Semiring() Semiring         { return SemiringSumF64 }
func (rankProg) KeepsAllVerticesActive()    {}

// newRankProg is rankProg over g's out-degrees.
func newRankProg(g *graph.Graph[float32], tol float64) rankProg {
	inv := make([]float64, g.NumVertices())
	for v := range inv {
		if d := g.OutDegree(uint32(v)); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	return rankProg{inv: inv, tol: tol}
}

// stepKey is the deterministic part of one IterationInfo: everything but its
// number (a chain restarts it at 1 every run) and its clocks.
type stepKey struct {
	Active, Sent, Applies, NextActive     int64
	Mode                                  Mode
	RowWalk                               bool
	FrontierEdges, PushEstimate, PullBill int64
}

func keyOf(info IterationInfo) stepKey {
	return stepKey{info.Active, info.Sent, info.Applies, info.NextActive, info.Mode, info.RowWalk,
		info.FrontierEdges, info.PushEstimate, info.PullBill}
}

// propBits is a property's bit pattern, so float properties compare bit for
// bit.
func propBits[V any](v V) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	case uint32:
		return uint64(x)
	}
	panic(fmt.Sprintf("propBits: unsupported property type %T", v))
}

// checkFusedResumed runs p to convergence from init once in a single run and
// once as a chain of one-superstep runs resumed from the active set, and
// requires bit-identical properties, equal summed Stats (Sched aside) and
// equal observer streams. For an AllVerticesActive program the chain
// re-activates every live column before each run after the first, and since
// neither side fuses a send, Sched.Tasks must be equal too.
func checkFusedResumed[V any, M, R any, P interface {
	Program[V, float32, M, R]
	DstIndependent
}](t *testing.T, g *graph.Graph[float32], p P, k int, init func(*BlockState[V]), cfg Config) {
	t.Helper()
	n := int(g.NumVertices())
	_, allActive := any(p).(AllVerticesActive)
	run := func(st *BlockState[V], cfg Config, steps *[]stepKey) Stats {
		t.Helper()
		s, err := RunContext(context.Background(), g, p, st, cfg, nil, WithObserver(func(info IterationInfo) error {
			*steps = append(*steps, keyOf(info))
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	one := NewBlockState[V](n, k)
	init(one)
	var oneSteps []stepKey
	oneStats := run(one, cfg, &oneSteps)
	if oneStats.Reason != Converged || oneStats.Iterations < 3 {
		t.Fatalf("single run: %d supersteps, reason %v; want a converged multi-superstep run", oneStats.Iterations, oneStats.Reason)
	}

	chain := NewBlockState[V](n, k)
	init(chain)
	var chainSteps []stepKey
	var chainStats Stats
	step := cfg
	step.MaxIterations = 1
	for i := 0; ; i++ {
		if i > 4*oneStats.Iterations {
			t.Fatalf("resumed chain still running after %d runs", i)
		}
		if allActive && i > 0 {
			chain.ActivateAllMask(chain.ActiveColumns())
		}
		s := run(chain, step, &chainSteps)
		chainStats.Add(s)
		if s.Reason == Converged {
			break
		}
	}

	for i := range one.props {
		if propBits(one.props[i]) != propBits(chain.props[i]) {
			t.Fatalf("slot %d (vertex %d, column %d): single run %v, resumed chain %v", i, i/k, i%k, one.props[i], chain.props[i])
		}
	}
	if allActive {
		oneStats.Sched.Steals, oneStats.Sched.BusyNS = 0, 0
		chainStats.Sched.Steals, chainStats.Sched.BusyNS = 0, 0
	} else {
		oneStats.Sched, chainStats.Sched = SchedStats{}, SchedStats{}
	}
	oneStats.Reason = ReasonNone
	if oneStats != chainStats {
		t.Errorf("stats\n single run %+v\nresumed chain %+v", oneStats, chainStats)
	}
	if fmt.Sprint(oneSteps) != fmt.Sprint(chainSteps) {
		t.Errorf("observer stream\n single run %v\nresumed chain %v", oneSteps, chainSteps)
	}
}

// TestFusedSendMatchesResumedRuns is the differential behind the fused send:
// sssp, a boolean FirstMessageFinal bfs (which takes the row walk under Pull
// and Auto) and min-label components, at one and three columns, one and three
// workers, under every mode, on a plain graph and on a base+delta overlay
// snapshot. The AllVerticesActive rank program runs the same grid, plus the
// boxed front-end at one column over both message vectors.
func TestFusedSendMatchesResumedRuns(t *testing.T) {
	base := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11, MaxWeight: 9})
	base.SortRowMajor()
	base.DedupKeepFirst()
	nv := base.NRows
	plainF, err := graph.NewFromCOO[float32](base.Clone(), graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	plainU, err := graph.NewFromCOO[float32](base.Clone(), graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	plainD, err := graph.NewFromCOO[float32](base.Clone(), graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := graph.Options{Partitions: 4, CompactFraction: -1}
	storeF, err := graph.NewStore[float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	storeU, err := graph.NewStore[float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	storeD, err := graph.NewStore[float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range layeredBatches(nv) {
		if _, err := storeF.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
		if _, err := storeU.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
		if _, err := storeD.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	snapF, snapU, snapD := storeF.Acquire(), storeU.Acquire(), storeD.Acquire()
	defer snapF.Release()
	defer snapU.Release()
	defer snapD.Release()
	if snapF.Graph().OverlayNNZ() == 0 {
		t.Fatal("test is vacuous: no overlay survived the batches")
	}

	sources := []uint32{0, 5, nv - 1}
	rooted := func(st *BlockState[float32]) {
		st.SetAllProps(inf)
		for s := range st.Width() {
			st.SetProp(sources[s], s, 0)
			st.Activate(sources[s], s)
		}
	}
	levels := func(st *BlockState[uint32]) {
		st.SetAllProps(^uint32(0))
		for s := range st.Width() {
			st.SetProp(sources[s], s, 0)
			st.Activate(sources[s], s)
		}
	}
	labels := func(st *BlockState[uint32]) {
		// Each column labels the vertices in its own order, so the columns
		// converge differently.
		st.InitProps(func(v uint32, s int) uint32 { return (v*uint32(2*s+1) + uint32(s)) % nv })
		st.ActivateAllMask(1<<st.Width() - 1)
	}
	ranks := func(st *BlockState[float64]) {
		// Each column starts from its own ranks, so the columns converge
		// differently.
		st.InitProps(func(v uint32, s int) float64 { return 1 + float64((v*uint32(2*s+1)+uint32(s))%7)/8 })
		st.ActivateAllMask(1<<st.Width() - 1)
	}

	graphs := []struct {
		name string
		f    *graph.Graph[float32]
		u    *graph.Graph[float32]
		d    *graph.Graph[float32]
	}{
		{"plain", plainF, plainU, plainD},
		{"overlay", snapF.Graph(), snapU.Graph(), snapD.Graph()},
	}
	for _, gr := range graphs {
		// The rank rows converge in well under rankCap supersteps; the cap
		// turns a run that never would into a failure, not a hang.
		const rankCap = 1000
		rank := newRankProg(gr.d, 1e-6)
		for _, k := range []int{1, 3} {
			for _, threads := range []int{1, 3} {
				for _, mode := range []Mode{Auto, Pull, Push} {
					cfg := Config{Mode: mode, Threads: threads}
					name := fmt.Sprintf("%s/k%d/threads%d/%s", gr.name, k, threads, mode)
					t.Run(name+"/sssp", func(t *testing.T) {
						checkFusedResumed(t, gr.f, ssspBlockProg{}, k, rooted, cfg)
					})
					t.Run(name+"/bfs_first", func(t *testing.T) {
						checkFusedResumed(t, gr.u, bfsBoolean{}, k, levels, cfg)
					})
					t.Run(name+"/components", func(t *testing.T) {
						checkFusedResumed(t, gr.u, ccProg{}, k, labels, cfg)
					})
					t.Run(name+"/rank", func(t *testing.T) {
						checkFusedResumed(t, gr.d, rank, k, ranks, Config{Mode: mode, Threads: threads, MaxIterations: rankCap})
					})
				}
				if k == 1 {
					for _, vec := range []struct {
						name     string
						dispatch Dispatch
					}{{"bitvector", Boxed}, {"sorted", BoxedSorted}} {
						cfg := Config{Dispatch: vec.dispatch, Threads: threads, MaxIterations: rankCap}
						t.Run(fmt.Sprintf("%s/k1/threads%d/boxed_%s/rank", gr.name, threads, vec.name), func(t *testing.T) {
							checkFusedResumed(t, gr.d, rank, k, ranks, cfg)
						})
					}
				}
			}
		}
	}
}

// countedSSSP is ssspBlockProg counting its SendMessage calls, every one of
// which sends.
type countedSSSP struct {
	ssspBlockProg
	calls *atomic.Int64
}

func (p countedSSSP) SendMessage(v VertexID, prop float32) (float32, bool) {
	p.calls.Add(1)
	return prop, true
}

// countedEndless is alwaysActiveBlock counting its SendMessage calls, every
// one of which sends.
type countedEndless struct {
	alwaysActiveBlock
	calls *atomic.Int64
}

func (p countedEndless) SendMessage(v VertexID, prop int64) (int64, bool) {
	p.calls.Add(1)
	return prop, true
}

// countedRank is rankProg counting its SendMessage calls, every one of which
// sends (a vertex without out-edges sends a message that reaches nobody).
type countedRank struct {
	rankProg
	calls *atomic.Int64
}

func (p countedRank) SendMessage(v VertexID, prop float64) (float64, bool) {
	p.calls.Add(1)
	return prop * p.inv[v], true
}

// TestNoSpeculativeSend pins that the fused send only ever runs for a
// superstep that will run: every SendMessage call a run makes is a message
// it counts, for runs that converge, runs capped by MaxIterations, and
// AllVerticesActive runs, capped and converged, which re-activate every
// vertex between supersteps. A send past the last superstep would be work
// nothing reads.
func TestNoSpeculativeSend(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 3, MaxWeight: 9})
	gf, err := graph.NewFromCOO[float32](adj.Clone(), graph.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := graph.NewFromCOO[float32](adj.Clone(), graph.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := int(gf.NumVertices())
	for _, k := range []int{1, 3} {
		all := uint64(1)<<k - 1
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			check := func(t *testing.T, calls *atomic.Int64, s Stats, reason StopReason) {
				t.Helper()
				if s.Reason != reason {
					t.Fatalf("reason %v, want %v", s.Reason, reason)
				}
				if got := calls.Load(); got != s.MessagesSent {
					t.Errorf("%d SendMessage calls, %d messages counted over %d supersteps", got, s.MessagesSent, s.Iterations)
				}
			}
			t.Run("converged", func(t *testing.T) {
				var calls atomic.Int64
				st := NewBlockState[float32](n, k)
				st.SetAllProps(inf)
				for s := range k {
					st.SetProp(uint32(7*s), s, 0)
					st.Activate(uint32(7*s), s)
				}
				s, err := RunContext(context.Background(), gf, countedSSSP{calls: &calls}, st, Config{Threads: 2}, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(t, &calls, s, Converged)
			})
			t.Run("capped", func(t *testing.T) {
				var calls atomic.Int64
				st := NewBlockState[int64](n, k)
				st.SetAllProps(1)
				st.ActivateAllMask(all)
				s, err := RunContext(context.Background(), gi, countedEndless{calls: &calls}, st, Config{Threads: 2, MaxIterations: 4}, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(t, &calls, s, MaxIterations)
			})
			// The AllVerticesActive runs also end with the active set their
			// last apply left, not re-activated: the last report's NextActive.
			for _, c := range []struct {
				name   string
				tol    float64
				cap    int
				reason StopReason
			}{
				{"all_active_capped", 0, 5, MaxIterations},
				{"all_active_converged", 1e-6, 1000, Converged},
			} {
				t.Run(c.name, func(t *testing.T) {
					var calls atomic.Int64
					st := NewBlockState[float64](n, k)
					st.SetAllProps(1)
					st.ActivateAllMask(all)
					p := countedRank{rankProg: newRankProg(gd, c.tol), calls: &calls}
					var last IterationInfo
					s, err := RunContext(context.Background(), gd, p, st, Config{Threads: 2, MaxIterations: c.cap}, nil, WithObserver(func(info IterationInfo) error {
						last = info
						return nil
					}))
					if err != nil {
						t.Fatal(err)
					}
					check(t, &calls, s, c.reason)
					if got := int64(st.summary.Count()); got != last.NextActive {
						t.Errorf("run ended with %d active vertices, its last superstep reported %d", got, last.NextActive)
					}
				})
			}
		})
	}
}
