package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// The session contract — stop reasons paired with errors, partial tallies
// returned, no Apply after a stop raised mid-multiply, scratch reusable
// after a stopped run, the per-superstep observer stream — belongs to the
// one superstep loop, so every test below asserts it once per front-end:
// the scalar engine, the boxed ablation, and the block engine twice — at
// k=2 with the second column idle, so the k-wide phases run a frontier that
// is the scalar run's, and at k=1, where the scalar phases run over the block
// state's arrays.

type frontEnd int

const (
	scalarFE frontEnd = iota
	boxedFE
	blockFE
	block1FE
)

func (fe frontEnd) String() string { return [...]string{"scalar", "boxed", "block", "block_k1"}[fe] }

// eachFrontEnd runs fn as one subtest per front-end.
func eachFrontEnd(t *testing.T, fn func(t *testing.T, fe frontEnd)) {
	for _, fe := range []frontEnd{scalarFE, boxedFE, blockFE, block1FE} {
		t.Run(fe.String(), func(t *testing.T) { fn(t, fe) })
	}
}

// session binds program p and graph g to one front-end's vertex state and
// reusable scratch: a one-column BlockState and a Workspace for the scalar
// engine (the boxed path ignores the workspace), a BlockState and
// BlockWorkspace for the block engine.
type session[V, M, R any, P interface {
	Program[V, float32, M, R]
	DstIndependent
}] struct {
	fe  frontEnd
	g   *graph.Graph[float32]
	p   P
	ws  *Workspace[M, R]
	bws *BlockWorkspace[M, R]
	st  *BlockState[V]
}

func newSession[V, M, R any, P interface {
	Program[V, float32, M, R]
	DstIndependent
}](fe frontEnd, g *graph.Graph[float32], p P) *session[V, M, R, P] {
	n := int(g.NumVertices())
	s := &session[V, M, R, P]{fe: fe, g: g, p: p}
	switch fe {
	case blockFE:
		s.bws, s.st = NewBlockWorkspace[M, R](n, 2), NewBlockState[V](n, 2)
	case block1FE:
		s.bws, s.st = NewBlockWorkspace[M, R](n, 1), NewBlockState[V](n, 1)
	default:
		s.ws, s.st = NewWorkspace[M, R](n, Bitvector), NewBlockState[V](n, 1)
	}
	return s
}

// reset sets every property to prop and activates exactly the given
// vertices, or all of them when none are given (in column 0 of a block).
func (s *session[V, M, R, P]) reset(prop V, active ...uint32) {
	s.st.SetAllProps(prop)
	s.st.ClearActive()
	if len(active) == 0 {
		s.st.ActivateAllMask(1)
	}
	for _, v := range active {
		s.st.Activate(v, 0)
	}
}

func (s *session[V, M, R, P]) setProp(v uint32, prop V) {
	s.st.SetProp(v, 0, prop)
}

func (s *session[V, M, R, P]) props() []V {
	return s.st.Columns()[0]
}

func (s *session[V, M, R, P]) run(ctx context.Context, cfg Config, opts ...RunOption) (Stats, error) {
	switch s.fe {
	case blockFE, block1FE:
		return RunContext(ctx, s.g, s.p, s.st, cfg, s.bws, opts...)
	case boxedFE:
		cfg.Dispatch = Boxed
	}
	return RunContext(ctx, s.g, s.p, s.st, cfg, s.ws, opts...)
}

// alwaysActiveBlock is alwaysActive declared DstIndependent, which admits it
// to the block engine.
type alwaysActiveBlock struct{ alwaysActive }

func (alwaysActiveBlock) ProcessIgnoresDst() {}

// endlessGraph builds an RMAT graph whose alwaysActive run never converges —
// the cancellation tests' workload.
func endlessGraph(t testing.TB, scale int) *graph.Graph[float32] {
	t.Helper()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 7, NoPermute: true})
	g, err := graph.NewFromCOO[float32](adj, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// endlessSession is a never-converging run on front-end fe: every vertex
// active with property 1.
func endlessSession(t *testing.T, fe frontEnd, scale int) *session[int64, int64, int64, alwaysActiveBlock] {
	s := newSession(fe, endlessGraph(t, scale), alwaysActiveBlock{})
	s.reset(1)
	return s
}

// ssspSession is single-source SSSP from vertex 0 on front-end fe; restart
// re-arms it for another run on the same scratch.
func ssspSession(fe frontEnd, g *graph.Graph[float32]) (s *session[float32, float32, float32, ssspBlockProg], restart func()) {
	s = newSession(fe, g, ssspBlockProg{})
	restart = func() {
		s.reset(inf, 0)
		s.setProp(0, 0)
	}
	restart()
	return s, restart
}

// TestRunContextCancelMidRun cancels an endless run on a large RMAT graph
// from its own observer and checks the run stops within one further
// superstep, reports Canceled, and returns ctx's error alongside the tallies
// of the work done so far. Runs under -race in CI, so it also exercises the
// stop flag's publication across the watcher goroutine and the partition
// workers.
func TestRunContextCancelMidRun(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		scale := 13
		if fe == boxedFE {
			scale = 8 // the naive path is an order of magnitude slower
		}
		s := endlessSession(t, fe, scale)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAt = 2
		stats, err := s.run(ctx, Config{}, WithObserver(func(info IterationInfo) error {
			if info.Iteration == cancelAt {
				cancel()
			}
			return nil
		}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if stats.Reason != Canceled {
			t.Fatalf("Reason = %v, want Canceled", stats.Reason)
		}
		// The watcher goroutine raises the stop flag asynchronously; the loop
		// must notice it no later than the superstep after the cancel.
		if stats.Iterations < cancelAt || stats.Iterations > cancelAt+1 {
			t.Fatalf("Iterations = %d, want %d or %d", stats.Iterations, cancelAt, cancelAt+1)
		}
		if stats.MessagesSent == 0 || stats.EdgesProcessed == 0 || stats.Applies == 0 {
			t.Fatalf("canceled run lost its partial tallies: %+v", stats)
		}
	})
}

// cancelInMultiply cancels its run from inside the multiply phase — every
// edge fold calls cancel — and counts Apply calls.
type cancelInMultiply struct {
	cancel  context.CancelFunc
	applies *atomic.Int64
}

func (cancelInMultiply) SendMessage(VertexID, int64) (int64, bool) { return 1, true }
func (p cancelInMultiply) ProcessMessage(m int64, _ float32, _ int64) int64 {
	p.cancel()
	return m
}
func (cancelInMultiply) Reduce(a, b int64) int64 { return a + b }
func (p cancelInMultiply) Apply(int64, VertexID, *int64) bool {
	p.applies.Add(1)
	return true
}
func (cancelInMultiply) Direction() graph.Direction { return graph.Out }
func (cancelInMultiply) ProcessIgnoresDst()         {}

// TestStopMidMultiplySkipsApply raises the stop inside the multiply phase:
// the loop must return the partial tallies — messages sent, the edges folded
// before the stop — without running Apply on the partially reduced vector.
func TestStopMidMultiplySkipsApply(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var applies atomic.Int64
		s := newSession(fe, endlessGraph(t, 8), cancelInMultiply{cancel: cancel, applies: &applies})
		s.reset(1)
		stats, err := s.run(ctx, Config{})
		if !errors.Is(err, context.Canceled) || stats.Reason != Canceled {
			t.Fatalf("err = %v, Reason = %v; want Canceled", err, stats.Reason)
		}
		if stats.Iterations != 1 || stats.MessagesSent == 0 || stats.EdgesProcessed == 0 {
			t.Fatalf("stats = %+v, want one superstep's send and partial multiply tallies", stats)
		}
		if n := applies.Load(); n != 0 || stats.Applies != 0 {
			t.Fatalf("Apply ran %d times (Stats.Applies %d) on a partially reduced vector", n, stats.Applies)
		}
	})
}

// TestWorkspaceReusableAfterCancel cancels an SSSP run mid-flight and then
// reuses the same scratch for a full run: the canceled run must not poison
// it — the rerun's distances must match a fresh-workspace run bit for bit.
func TestWorkspaceReusableAfterCancel(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 8, Seed: 11, MaxWeight: 10, NoPermute: true})
	g, err := graph.NewFromCOO[float32](adj, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockState[float32](int(g.NumVertices()), 1)
	// Reference run with fresh scratch.
	st.SetAllProps(inf)
	st.SetProp(0, 0, 0)
	st.Activate(0, 0)
	if _, err := Run(g, ssspProg{}, st, Config{}); err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), st.Props()...)

	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		s, restart := ssspSession(fe, g)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stats, err := s.run(ctx, Config{}, WithObserver(func(info IterationInfo) error {
			if info.Iteration == 1 {
				cancel()
			}
			return nil
		}))
		if !errors.Is(err, context.Canceled) || stats.Reason != Canceled {
			t.Fatalf("canceled run: err = %v, Reason = %v", err, stats.Reason)
		}

		// Rerun to convergence with the canceled run's scratch.
		restart()
		if _, err := s.run(context.Background(), Config{}); err != nil {
			t.Fatal(err)
		}
		for v, got := range s.props() {
			if got != want[v] {
				t.Fatalf("dist[%d] = %v after reuse, want %v", v, got, want[v])
			}
		}
	})
}

// TestRunContextPreCanceled checks a context canceled before the run starts
// stops it before the first superstep.
func TestRunContextPreCanceled(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stats, err := endlessSession(t, fe, 6).run(ctx, Config{})
		if !errors.Is(err, context.Canceled) || stats.Reason != Canceled {
			t.Fatalf("err = %v, Reason = %v; want Canceled", err, stats.Reason)
		}
		if stats.Iterations != 0 {
			t.Fatalf("Iterations = %d, want 0", stats.Iterations)
		}
	})
}

// TestRunContextDeadline checks that a context deadline stops an endless run
// with reason DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		stats, err := endlessSession(t, fe, 8).run(ctx, Config{})
		if !errors.Is(err, context.DeadlineExceeded) || stats.Reason != DeadlineExceeded {
			t.Fatalf("ctx deadline: err = %v, Reason = %v", err, stats.Reason)
		}
	})
}

// TestObserverStopsRun checks an observer error stops the run with
// StoppedByObserver and surfaces the observer's error verbatim.
func TestObserverStopsRun(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		errEnough := errors.New("enough")
		stats, err := endlessSession(t, fe, 6).run(context.Background(), Config{},
			WithObserver(func(info IterationInfo) error {
				if info.Iteration == 3 {
					return errEnough
				}
				return nil
			}))
		if !errors.Is(err, errEnough) {
			t.Fatalf("err = %v, want the observer's error", err)
		}
		if stats.Reason != StoppedByObserver || stats.Iterations != 3 {
			t.Fatalf("Reason = %v, Iterations = %d; want StoppedByObserver after 3", stats.Reason, stats.Iterations)
		}
	})
}

// TestObserverIterationInfo checks the per-superstep progress stream of SSSP
// on the Figure 3 graph: iteration numbers count up from 1, the messages the
// observer saw add up to the run's, and the final report shows an empty next
// frontier.
func TestObserverIterationInfo(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		s, _ := ssspSession(fe, fig3Graph(t, graph.Options{Partitions: 2}))
		var infos []IterationInfo
		stats, err := s.run(context.Background(), Config{},
			WithObserver(func(info IterationInfo) error {
				infos = append(infos, info)
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reason != Converged {
			t.Fatalf("Reason = %v, want Converged", stats.Reason)
		}
		if len(infos) != stats.Iterations {
			t.Fatalf("observed %d supersteps, stats say %d", len(infos), stats.Iterations)
		}
		var sent int64
		for i, info := range infos {
			if info.Iteration != i+1 {
				t.Fatalf("info[%d].Iteration = %d, want %d", i, info.Iteration, i+1)
			}
			sent += info.Sent
		}
		if sent != stats.MessagesSent {
			t.Fatalf("observer saw %d messages, stats say %d", sent, stats.MessagesSent)
		}
		if last := infos[len(infos)-1]; last.NextActive != 0 {
			t.Fatalf("final NextActive = %d, want 0", last.NextActive)
		}
	})
}

// TestObserverModeInputs checks that each superstep reports what its mode was
// chosen from: under Auto, Mode is Push exactly when the reported frontier
// edge work passes the edge rule against the graph's edge count and the
// reported push estimate does not exceed the reported pull bill; under a
// forced mode, and on the boxed path (which always pulls), all three read 0.
// The workload is TestStatsPinned's, whose Auto run takes both walks.
func TestObserverModeInputs(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		s := newSession(fe, g, ssspBlockProg{})
		for _, mode := range []Mode{Auto, Pull, Push} {
			s.reset(inf, 1)
			s.setProp(1, 0)
			walks := map[Mode]int{}
			_, err := s.run(context.Background(), Config{Mode: mode, Threads: 2}, WithObserver(func(info IterationInfo) error {
				walks[info.Mode]++
				if mode != Auto || fe == boxedFE {
					if info.FrontierEdges != 0 || info.PushEstimate != 0 || info.PullBill != 0 {
						t.Errorf("%s superstep %d: mode inputs %d/%d/%d, want zeros", mode, info.Iteration, info.FrontierEdges, info.PushEstimate, info.PullBill)
					}
					return nil
				}
				if info.PullBill <= 0 || info.PushEstimate <= 0 || info.FrontierEdges <= 0 {
					t.Errorf("superstep %d: mode inputs %d/%d/%d, want all positive", info.Iteration, info.FrontierEdges, info.PushEstimate, info.PullBill)
				}
				push := info.FrontierEdges*DefaultPushThreshold <= g.NumEdges() && info.PushEstimate <= info.PullBill
				if (info.Mode == Push) != push {
					t.Errorf("superstep %d ran %s from frontier edges %d (of %d), push estimate %d, pull bill %d", info.Iteration, info.Mode, info.FrontierEdges, g.NumEdges(), info.PushEstimate, info.PullBill)
				}
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if mode == Auto && fe != boxedFE && (walks[Push] == 0 || walks[Pull] == 0) {
				t.Errorf("auto took %d push and %d pull supersteps, want both", walks[Push], walks[Pull])
			}
		}
	})
}

// TestStopReasons checks the terminal classification of uncanceled runs and
// the JSON round-trip of the typed reason.
func TestStopReasons(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		s, _ := ssspSession(fe, fig3Graph(t, graph.Options{}))
		stats, err := s.run(context.Background(), Config{})
		if err != nil || stats.Reason != Converged {
			t.Fatalf("converging run: err = %v, Reason = %v", err, stats.Reason)
		}

		stats, err = endlessSession(t, fe, 4).run(context.Background(), Config{MaxIterations: 5})
		if err != nil || stats.Reason != MaxIterations || stats.Iterations != 5 {
			t.Fatalf("capped run: err = %v, Reason = %v, Iterations = %d", err, stats.Reason, stats.Iterations)
		}
	})

	for _, r := range []StopReason{ReasonNone, Converged, MaxIterations, Canceled, DeadlineExceeded, StoppedByObserver} {
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back StopReason
		if err := back.UnmarshalJSON(b); err != nil || back != r {
			t.Fatalf("round-trip of %v: got %v, err %v", r, back, err)
		}
	}
}
