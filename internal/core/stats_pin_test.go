package core

import (
	"context"
	"slices"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// pinStats is the deterministic part of a run's Stats (Sched.Steals and
// Sched.BusyNS are scheduling outcomes).
type pinStats struct {
	Iterations                            int
	MessagesSent, EdgesProcessed, Applies int64
	ActiveSum, ColumnsProbed              int64
	PushSupersteps, PullSupersteps        int64
	Reason                                StopReason
	Workers                               int
	Tasks                                 int64
	FlatEdges                             int64
}

// pinStep is the deterministic part of one IterationInfo (Elapsed and Total
// are wall-clock).
type pinStep struct {
	Iteration                         int
	Active, Sent, Applies, NextActive int64
	Mode                              Mode
}

// withModes stamps one mode per superstep onto a frontier profile.
func withModes(profile []pinStep, modes ...Mode) []pinStep {
	out := slices.Clone(profile)
	for i := range out {
		out[i].Mode = modes[i]
	}
	return out
}

// TestStatsPinned holds every deterministic engine tally and the
// per-superstep observer stream of fixed seeded SSSP runs to literal values
// recorded before the three superstep drivers were folded into one loop: the
// scalar engine under each mode at one and three workers, the block engine
// at k=1 and k=3, and the boxed ablation with either message vector. The
// workload — a seeded weighted RMAT in two partitions — is edge-dense enough
// that an Auto run takes both push and pull supersteps. A change to the loop,
// the cost model's inputs or the phase dispatch that moves any value fails
// here by name.
//
// Tasks was re-recorded once, when each apply phase began sending the next
// superstep's messages: every superstep after the first lost its send phase,
// one task per vertex chunk (4 at one worker, 11 at three), and nothing else
// moved. The boxed rows never fuse and kept theirs.
//
// FlatEdges was added with the pull walk's flat fold. Each 118 is one batch:
// the 8-column tail of a partition's 1352-column list, which one mid-run
// frontier happens to cover. Push supersteps never fold flat, and the k-wide
// block sinks and the boxed path have no flat fold, so the push and k-wide
// rows pin 0.
//
// Every multiply task is one whole partition, so a 3-worker row equals its
// 1-worker row in every tally but Workers and Tasks.
//
// The row walk re-recorded nothing here: SSSP does not declare
// FirstMessageFinal, so every row must stay as it was — the test now also
// fails if one of these runs reports a row-walk superstep — and the push
// rows pin that finding columns through the bitmap in walkPush kept its
// probe tally. What the row walk does to a program that declares the marker
// is pinned in TestStatsPinnedRowWalk.
func TestStatsPinned(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := []uint32{1, 40, 700}

	scalar := func(cfg Config) func(Observer) (Stats, error) {
		return func(obs Observer) (Stats, error) {
			sc := NewBlockState[float32](n, 1)
			sc.SetAllProps(inf)
			sc.SetProp(sources[0], 0, 0)
			sc.ClearActive()
			sc.Activate(sources[0], 0)
			return RunContext(context.Background(), g, ssspProg{}, sc, cfg, nil, WithObserver(obs))
		}
	}
	block := func(k int) func(Observer) (Stats, error) {
		return func(obs Observer) (Stats, error) {
			st := NewBlockState[float32](n, k)
			st.SetAllProps(inf)
			for s, src := range sources[:k] {
				st.SetProp(src, s, 0)
				st.Activate(src, s)
			}
			return RunContext(context.Background(), g, ssspBlockProg{}, st, Config{Threads: 3}, nil, WithObserver(obs))
		}
	}

	const pl, ps = Pull, Push
	// One source's frontier profile: every single-source run walks it,
	// whatever engine and mode.
	solo := []pinStep{
		{1, 1, 1, 1, 1, 0}, {2, 1, 1, 109, 109, 0}, {3, 109, 109, 1278, 1238, 0},
		{4, 1238, 1238, 1523, 1323, 0}, {5, 1323, 1323, 1419, 875, 0}, {6, 875, 875, 1181, 374, 0},
		{7, 374, 374, 724, 72, 0}, {8, 72, 72, 201, 6, 0}, {9, 6, 6, 13, 0, 0},
	}
	// Three sources: Active counts vertices, Sent and Applies count
	// (vertex, column) pairs.
	trio := []pinStep{
		{1, 3, 3, 5, 5, ps}, {2, 5, 5, 713, 631, ps}, {3, 631, 709, 2765, 1506, pl},
		{4, 1506, 2504, 2978, 1468, pl}, {5, 1468, 2308, 2693, 1065, pl}, {6, 1065, 1386, 2074, 472, pl},
		{7, 472, 528, 1156, 98, pl}, {8, 98, 104, 307, 6, ps}, {9, 6, 6, 13, 0, ps},
	}
	auto := withModes(solo, ps, ps, pl, pl, pl, pl, pl, ps, ps)
	pull := withModes(solo, pl, pl, pl, pl, pl, pl, pl, pl, pl)
	push := withModes(solo, ps, ps, ps, ps, ps, ps, ps, ps, ps)

	cases := []struct {
		name  string
		run   func(Observer) (Stats, error)
		stats pinStats
		steps []pinStep
	}{
		{"scalar/auto/threads1", scalar(Config{Mode: Auto, Threads: 1}),
			pinStats{9, 3999, 61592, 6449, 3999, 13595, 4, 5, Converged, 1, 58, 118}, auto},
		{"scalar/auto/threads3", scalar(Config{Mode: Auto, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 13595, 4, 5, Converged, 3, 128, 118}, auto},
		{"scalar/pull/threads1", scalar(Config{Mode: Pull, Threads: 1}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 1, 58, 118}, pull},
		{"scalar/pull/threads3", scalar(Config{Mode: Pull, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 3, 128, 118}, pull},
		{"scalar/push/threads1", scalar(Config{Mode: Push, Threads: 1}),
			pinStats{9, 3999, 61592, 6449, 3999, 7998, 9, 0, Converged, 1, 58, 0}, push},
		{"scalar/push/threads3", scalar(Config{Mode: Push, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 7998, 9, 0, Converged, 3, 128, 0}, push},
		{"block/k1", block(1),
			pinStats{9, 3999, 61592, 6449, 3999, 13595, 4, 5, Converged, 3, 128, 118}, auto},
		{"block/k3", block(3),
			pinStats{9, 7553, 118790, 12704, 5254, 13659, 4, 5, Converged, 3, 128, 0}, trio},
		{"boxed/bitvector", scalar(Config{Dispatch: Boxed, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 3, 216, 0}, pull},
		{"boxed/sorted", scalar(Config{Dispatch: BoxedSorted, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 3, 216, 0}, pull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var steps []pinStep
			rowWalks := 0
			s, err := tc.run(func(info IterationInfo) error {
				steps = append(steps, pinStep{info.Iteration, info.Active, info.Sent, info.Applies, info.NextActive, info.Mode})
				if info.RowWalk {
					rowWalks++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got := pinStats{
				s.Iterations, s.MessagesSent, s.EdgesProcessed, s.Applies,
				s.ActiveSum, s.ColumnsProbed, s.PushSupersteps, s.PullSupersteps,
				s.Reason, s.Sched.Workers, s.Sched.Tasks, s.FlatEdges,
			}
			if got != tc.stats {
				t.Errorf("stats\n got %+v\nwant %+v", got, tc.stats)
			}
			if !slices.Equal(steps, tc.steps) {
				t.Errorf("observer stream\n got %v\nwant %v", steps, tc.steps)
			}
			if s.RowSupersteps != 0 || rowWalks != 0 {
				t.Errorf("a program without FirstMessageFinal ran the row walk: RowSupersteps %d, %d observer reports", s.RowSupersteps, rowWalks)
			}
		})
	}
}

// bfsFirst is bfsProg declaring FirstMessageFinal, which single-root hop
// counting keeps: all of a superstep's messages carry one level. Without the
// boolean fold it takes the column walks only (TestFirstMessageFinalAlone).
type bfsFirst struct{ bfsProg }

func (bfsFirst) Unsettled(prop uint32) bool { return prop == ^uint32(0) }

// walkLetters returns an observer spelling a run's walks into *walks, one
// letter per superstep: s push, l pull by columns, r pull by rows.
func walkLetters(walks *string) Observer {
	return func(info IterationInfo) error {
		switch {
		case info.RowWalk:
			*walks += "r"
		case info.Mode == Pull:
			*walks += "l"
		default:
			*walks += "s"
		}
		return nil
	}
}

// TestStatsPinnedRowWalk pins what the row walk changes, on TestStatsPinned's
// graph under single-root BFS declaring the boolean fold and FirstMessageFinal
// (bfsBoolean, whose one-column sink is maskSink): forced Push and the
// boxed ablation are the all-edges baseline (every tally equal, no row-walk
// superstep), and each run that may pull pins which supersteps gathered —
// RowSupersteps, the observer's RowWalk flags — and the smaller
// EdgesProcessed, Applies and ColumnsProbed that follow, while Iterations,
// MessagesSent, ActiveSum and the frontier profile stay the baseline's.
func TestStatsPinnedRowWalk(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	type rowStats struct {
		Iterations                                          int
		MessagesSent, EdgesProcessed, Applies, ActiveSum    int64
		ColumnsProbed, PushSupersteps, PullSupersteps, Rows int64
	}
	cases := []struct {
		name  string
		cfg   Config
		stats rowStats
		walks string // see walkLetters
	}{
		{"push/threads1", Config{Mode: Push, Threads: 1}, rowStats{6, 1552, 25225, 3023, 1552, 3104, 6, 0, 0}, "ssssss"},
		{"boxed/threads3", Config{Dispatch: Boxed, Threads: 3}, rowStats{6, 1552, 25225, 3023, 1552, 16122, 0, 6, 0}, "llllll"},
		{"auto/threads1", Config{Mode: Auto, Threads: 1}, rowStats{6, 1552, 3003, 1810, 1552, 536, 4, 2, 2}, "ssrrss"},
		{"auto/threads3", Config{Mode: Auto, Threads: 3}, rowStats{6, 1552, 3003, 1810, 1552, 536, 4, 2, 2}, "ssrrss"},
		{"pull/threads1", Config{Mode: Pull, Threads: 1}, rowStats{6, 1552, 2498, 1551, 1552, 5374, 0, 6, 4}, "llrrrr"},
		{"pull/threads3", Config{Mode: Pull, Threads: 3}, rowStats{6, 1552, 2498, 1551, 1552, 5374, 0, 6, 4}, "llrrrr"},
	}
	var ref []uint32
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewBlockState[uint32](int(g.NumVertices()), 1)
			sc.SetAllProps(^uint32(0))
			sc.SetProp(1, 0, 0)
			sc.ClearActive()
			sc.Activate(1, 0)
			walks := ""
			s, err := RunContext(context.Background(), g, bfsBoolean{}, sc, tc.cfg, nil, WithObserver(walkLetters(&walks)))
			if err != nil {
				t.Fatal(err)
			}
			got := rowStats{
				s.Iterations, s.MessagesSent, s.EdgesProcessed, s.Applies, s.ActiveSum,
				s.ColumnsProbed, s.PushSupersteps, s.PullSupersteps, s.RowSupersteps,
			}
			if got != tc.stats || walks != tc.walks {
				t.Errorf("stats, walks\n got %+v %q\nwant %+v %q", got, walks, tc.stats, tc.walks)
			}
			if ref == nil {
				ref = slices.Clone(sc.Props())
			} else if !slices.Equal(sc.Props(), ref) {
				t.Errorf("distances differ from the forced-push run's")
			}
		})
	}
}

// TestStatsPinnedBlockRowWalk pins the k-wide gather (blockMaskSink) on
// TestStatsPinned's graph: a 4-source and a 16-source bfsBoolean block under
// forced Push — the column-walk run — and under Auto and Pull, which gather.
// Iterations, MessagesSent and ActiveSum are the column-walk run's;
// EdgesProcessed, Applies and the per-superstep walks are what the gather
// makes of them — slots examined while some live column still waits, so a
// row whose other columns have no frontier left is left early; and every
// column is its solo run's distances under every mode.
func TestStatsPinnedBlockRowWalk(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := []uint32{1, 40, 700, 3, 9, 2047, 64, 65, 128, 1000, 1500, 5, 6, 7, 8, 300}
	solo := make([][]uint32, len(sources))
	for s, src := range sources {
		sc := NewBlockState[uint32](n, 1)
		sc.SetAllProps(^uint32(0))
		sc.SetProp(src, 0, 0)
		sc.ClearActive()
		sc.Activate(src, 0)
		if _, err := RunContext(context.Background(), g, bfsBoolean{}, sc, Config{Mode: Push, Threads: 1}, nil); err != nil {
			t.Fatal(err)
		}
		solo[s] = slices.Clone(sc.Props())
	}
	type rowStats struct {
		Iterations                                       int
		MessagesSent, ActiveSum, EdgesProcessed, Applies int64
		Rows                                             int64
	}
	cases := []struct {
		name  string
		k     int
		cfg   Config
		stats rowStats
		walks string // see walkLetters
	}{
		{"k4/push", 4, Config{Mode: Push, Threads: 1}, rowStats{6, 4658, 2596, 75678, 9029, 0}, "ssssss"},
		{"k4/auto/threads1", 4, Config{Mode: Auto, Threads: 1}, rowStats{6, 4658, 2596, 5422, 5297, 2}, "ssrrls"},
		{"k4/auto/threads3", 4, Config{Mode: Auto, Threads: 3}, rowStats{6, 4658, 2596, 5422, 5297, 2}, "ssrrls"},
		{"k4/pull/threads3", 4, Config{Mode: Pull, Threads: 3}, rowStats{6, 4658, 2596, 5422, 5297, 2}, "llrrll"},
		{"k16/push", 16, Config{Mode: Push, Threads: 3}, rowStats{7, 15529, 4431, 252256, 30045, 0}, "sssssss"},
		{"k16/auto/threads1", 16, Config{Mode: Auto, Threads: 1}, rowStats{7, 15529, 4431, 31629, 15907, 3}, "slrrrss"},
		{"k16/auto/threads3", 16, Config{Mode: Auto, Threads: 3}, rowStats{7, 15529, 4431, 31629, 15907, 3}, "slrrrss"},
		{"k16/pull/threads3", 16, Config{Mode: Pull, Threads: 3}, rowStats{7, 15529, 4431, 31629, 15907, 3}, "llrrrll"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewBlockState[uint32](n, tc.k)
			st.SetAllProps(^uint32(0))
			for s, src := range sources[:tc.k] {
				st.SetProp(src, s, 0)
				st.Activate(src, s)
			}
			walks := ""
			s, err := RunContext(context.Background(), g, bfsBoolean{}, st, tc.cfg, nil, WithObserver(walkLetters(&walks)))
			if err != nil {
				t.Fatal(err)
			}
			got := rowStats{s.Iterations, s.MessagesSent, s.ActiveSum, s.EdgesProcessed, s.Applies, s.RowSupersteps}
			if got != tc.stats || walks != tc.walks {
				t.Errorf("stats, walks\n got %+v %q\nwant %+v %q", got, walks, tc.stats, tc.walks)
			}
			for c, col := range st.Columns() {
				if !slices.Equal(col, solo[c]) {
					t.Errorf("column %d (source %d) differs from its solo run", c, sources[c])
				}
			}
		})
	}
}

// bfsBoolean is bfsFirst declaring the boolean fold, which level-synchronous
// hop counting keeps: a superstep's messages all carry one level.
type bfsBoolean struct{ bfsFirst }

func (bfsBoolean) Semiring() Semiring { return SemiringBoolean }

// TestStatsPinnedBooleanBlock pins the column-mask fold (blockMaskSink) on
// TestStatsPinnedBlockRowWalk's graph, sources and configurations, run by
// bfsBoolean beside bfsFirst's value fold, which takes the column walks
// only: Iterations, MessagesSent, ActiveSum and every column must be the
// value fold's, and on a run that walks no rows (forced Push) Applies —
// every received (vertex, column) pair, settled or not — EdgesProcessed,
// per (edge, live column), and the per-superstep walks too. EdgesProcessed,
// Applies and the row-walk supersteps are pinned.
func TestStatsPinnedBooleanBlock(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := []uint32{1, 40, 700, 3, 9, 2047, 64, 65, 128, 1000, 1500, 5, 6, 7, 8, 300}
	type boolStats struct {
		EdgesProcessed, Applies int64
		Rows                    int64
	}
	cases := []struct {
		name  string
		k     int
		cfg   Config
		stats boolStats
	}{
		{"k4/push", 4, Config{Mode: Push, Threads: 1}, boolStats{75678, 9029, 0}},
		{"k4/auto/threads1", 4, Config{Mode: Auto, Threads: 1}, boolStats{5422, 5297, 2}},
		{"k4/auto/threads3", 4, Config{Mode: Auto, Threads: 3}, boolStats{5422, 5297, 2}},
		{"k4/pull/threads3", 4, Config{Mode: Pull, Threads: 3}, boolStats{5422, 5297, 2}},
		{"k16/push", 16, Config{Mode: Push, Threads: 3}, boolStats{252256, 30045, 0}},
		{"k16/auto/threads1", 16, Config{Mode: Auto, Threads: 1}, boolStats{31629, 15907, 3}},
		{"k16/auto/threads3", 16, Config{Mode: Auto, Threads: 3}, boolStats{31629, 15907, 3}},
		{"k16/pull/threads3", 16, Config{Mode: Pull, Threads: 3}, boolStats{31629, 15907, 3}},
	}
	run := func(k int, cfg Config, p interface {
		Program[uint32, float32, uint32, uint32]
		DstIndependent
	}) (Stats, string, [][]uint32) {
		st := NewBlockState[uint32](n, k)
		st.SetAllProps(^uint32(0))
		for s, src := range sources[:k] {
			st.SetProp(src, s, 0)
			st.Activate(src, s)
		}
		walks := ""
		s, err := RunContext(context.Background(), g, p, st, cfg, nil, WithObserver(walkLetters(&walks)))
		if err != nil {
			t.Fatal(err)
		}
		return s, walks, st.Columns()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refWalks, refCols := run(tc.k, tc.cfg, bfsFirst{})
			s, walks, cols := run(tc.k, tc.cfg, bfsBoolean{})
			if ref.RowSupersteps != 0 {
				t.Errorf("the value fold walked rows: %+v %q", ref, refWalks)
			}
			if s.Iterations != ref.Iterations || s.MessagesSent != ref.MessagesSent || s.ActiveSum != ref.ActiveSum {
				t.Errorf("frontier tallies differ from the value fold's\n got %+v %q\nwant %+v %q", s, walks, ref, refWalks)
			}
			if s.RowSupersteps == 0 && (s.Applies != ref.Applies || s.EdgesProcessed != ref.EdgesProcessed || walks != refWalks) {
				t.Errorf("work tallies or walks of a run without a row walk differ from the value fold's\n got %+v %q\nwant %+v %q", s, walks, ref, refWalks)
			}
			if got := (boolStats{s.EdgesProcessed, s.Applies, s.RowSupersteps}); got != tc.stats {
				t.Errorf("mask fold tallies\n got %+v\nwant %+v", got, tc.stats)
			}
			for c := range cols {
				if !slices.Equal(cols[c], refCols[c]) {
					t.Errorf("column %d (source %d) differs from the value fold's", c, sources[c])
				}
			}
		})
	}
}

// TestStatsPinnedRowWalkOverlay runs the row-walk pins' graph, sources and
// program over a store whose every layer carries a pending delta — inserts,
// single-edge deletes and a vertex's whole out-edge list deleted, which
// leaves tombstones — under forced Pull: the one-column mask fold (maskSink)
// at k = 1 and the k-wide one (blockMaskSink) at k = 4 and 16.
// The row walk reads each overlay row as its live entries, so every tally,
// the per-superstep walks and every column must be those of the same store
// compacted, and the walk must gather on some superstep.
func TestStatsPinnedRowWalkOverlay(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	n := adj.NRows
	var batch []graph.Update[float32]
	for i, e := range adj.Entries {
		if i%16 == 5 {
			batch = append(batch, graph.Update[float32]{Src: e.Row, Dst: e.Col, Del: true})
		}
		if e.Row == 2 {
			batch = append(batch, graph.Update[float32]{Src: e.Row, Dst: e.Col, Del: true})
		}
	}
	for v := uint32(0); v < n; v += 32 {
		batch = append(batch, graph.Update[float32]{Src: (v*7 + 3) % n, Dst: v, Val: 1})
	}
	store, err := graph.NewStore[float32](adj, graph.Options{Partitions: 2, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	overlay := store.Acquire()
	defer overlay.Release()
	for i, l := range overlay.Graph().OutLayers() {
		if l.Delta == nil {
			t.Fatalf("fixture: layer %d carries no delta", i)
		}
	}
	store.Compact()
	compacted := store.Acquire()
	defer compacted.Release()
	if compacted.Graph().OverlayNNZ() != 0 {
		t.Fatal("fixture: the compacted snapshot still carries an overlay")
	}

	sources := []uint32{1, 40, 700, 3, 9, 2047, 64, 65, 128, 1000, 1500, 5, 6, 7, 8, 300}
	type rowStats struct {
		Iterations                                       int
		MessagesSent, ActiveSum, EdgesProcessed, Applies int64
		PullSupersteps, Rows, ColumnsProbed              int64
	}
	run := func(snap *graph.Snapshot[float32], k int, p interface {
		Program[uint32, float32, uint32, uint32]
		DstIndependent
	}) (rowStats, string, [][]uint32) {
		g := snap.Graph()
		st := NewBlockState[uint32](int(n), k)
		st.SetAllProps(^uint32(0))
		for s, src := range sources[:k] {
			st.SetProp(src, s, 0)
			st.Activate(src, s)
		}
		walks := ""
		s, err := RunContext(context.Background(), g, p, st, Config{Mode: Pull, Threads: 3}, nil, WithObserver(walkLetters(&walks)))
		if err != nil {
			t.Fatal(err)
		}
		return rowStats{s.Iterations, s.MessagesSent, s.ActiveSum, s.EdgesProcessed, s.Applies, s.PullSupersteps, s.RowSupersteps, s.ColumnsProbed}, walks, st.Columns()
	}
	for _, tc := range []struct {
		name string
		k    int
		p    interface {
			Program[uint32, float32, uint32, uint32]
			DstIndependent
		}
	}{
		{"k1/mask", 1, bfsBoolean{}},
		{"k4/mask", 4, bfsBoolean{}},
		{"k16/mask", 16, bfsBoolean{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantWalks, wantCols := run(compacted, tc.k, tc.p)
			got, walks, cols := run(overlay, tc.k, tc.p)
			if got != want || walks != wantWalks {
				t.Errorf("overlay vs compacted stats, walks\n got %+v %q\nwant %+v %q", got, walks, want, wantWalks)
			}
			if got.Rows == 0 {
				t.Errorf("no row-walk superstep over the overlay: %+v %q", got, walks)
			}
			for c := range cols {
				if !slices.Equal(cols[c], wantCols[c]) {
					t.Errorf("column %d (source %d) differs from the compacted store's", c, sources[c])
				}
			}
		})
	}
}

// TestFirstMessageFinalAlone runs bfsFirst — FirstMessageFinal declared,
// the boolean fold not — on the row-walk pins' graph and sources at one and
// four columns under Pull and Auto: the engine acts on the marker only
// beside SemiringBoolean and DstIndependent, so no superstep walks rows,
// and the value fold's column walks give bfsBoolean's vertex state.
func TestFirstMessageFinalAlone(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	sources := []uint32{1, 40, 700, 3}
	run := func(k int, cfg Config, p interface {
		Program[uint32, float32, uint32, uint32]
		DstIndependent
	}) (Stats, [][]uint32) {
		st := NewBlockState[uint32](int(g.NumVertices()), k)
		st.SetAllProps(^uint32(0))
		st.ClearActive()
		for s, src := range sources[:k] {
			st.SetProp(src, s, 0)
			st.Activate(src, s)
		}
		s, err := RunContext(context.Background(), g, p, st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s, st.Columns()
	}
	for _, k := range []int{1, 4} {
		for _, mode := range []Mode{Pull, Auto} {
			cfg := Config{Mode: mode, Threads: 2}
			first, cols := run(k, cfg, bfsFirst{})
			boolean, want := run(k, cfg, bfsBoolean{})
			if first.RowSupersteps != 0 {
				t.Errorf("k=%d %s: bfsFirst took %d row-walk supersteps", k, mode, first.RowSupersteps)
			}
			if boolean.RowSupersteps == 0 {
				t.Errorf("k=%d %s: vacuous, bfsBoolean took no row walk either", k, mode)
			}
			for c := range cols {
				if !slices.Equal(cols[c], want[c]) {
					t.Errorf("k=%d %s: column %d (source %d) differs from bfsBoolean's", k, mode, c, sources[c])
				}
			}
		}
	}
}
