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
// that a 3-worker pull superstep runs row-split tasks (ColumnsProbed doubles
// against one worker) and an Auto run takes both push and pull supersteps.
// A change to the loop, the cost model's inputs, the task shaper or the
// phase dispatch that moves any value fails here by name.
//
// FlatEdges was added with the pull walk's flat fold. The two 118s are one
// batch: the 8-column tail of a partition's 1352-column list, which one
// mid-run frontier happens to cover; the 3-worker pull tasks are
// row-clipped (block/k1 included: it runs the scalar phases, at three
// workers), push supersteps never fold flat, and the k-wide block sinks and
// the boxed path have no flat fold, so every other case pins 0.
//
// The row walk re-recorded nothing here: SSSP does not declare
// FirstMessageFinal, so every row must stay as it was — the test now also
// fails if one of these runs reports a row-walk superstep — and the push
// rows pin that writing FindColumn's AUX arm out in walkPush kept its probe
// tally. What the row walk does to a program that declares the marker is
// pinned in TestStatsPinnedRowWalk.
func TestStatsPinned(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32, float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := []uint32{1, 40, 700}

	scalar := func(cfg Config) func(Observer) (Stats, error) {
		return func(obs Observer) (Stats, error) {
			g.SetAllProps(inf)
			g.SetProp(sources[0], 0)
			g.ClearActive()
			g.SetActive(sources[0])
			return RunContext(context.Background(), g, ssspProg{}, cfg, nil, WithObserver(obs))
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
			return RunBlockContext(context.Background(), g, ssspBlockProg{}, st, Config{Threads: 3}, nil, WithObserver(obs))
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
			pinStats{9, 3999, 61592, 6449, 3999, 13595, 4, 5, Converged, 1, 90, 118}, auto},
		{"scalar/auto/threads3", scalar(Config{Mode: Auto, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 27030, 4, 5, Converged, 3, 226, 0}, auto},
		{"scalar/pull/threads1", scalar(Config{Mode: Pull, Threads: 1}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 1, 90, 118}, pull},
		{"scalar/pull/threads3", scalar(Config{Mode: Pull, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 48366, 0, 9, Converged, 3, 234, 0}, pull},
		{"scalar/push/threads1", scalar(Config{Mode: Push, Threads: 1}),
			pinStats{9, 3999, 61592, 6449, 3999, 7998, 9, 0, Converged, 1, 90, 0}, push},
		{"scalar/push/threads3", scalar(Config{Mode: Push, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 7998, 9, 0, Converged, 3, 216, 0}, push},
		{"block/k1", block(1),
			pinStats{9, 3999, 61592, 6449, 3999, 27030, 4, 5, Converged, 3, 226, 0}, auto},
		{"block/k3", block(3),
			pinStats{9, 7553, 118790, 12704, 5254, 27094, 4, 5, Converged, 3, 226, 0}, trio},
		{"boxed/bitvector", scalar(Config{Dispatch: Boxed, Vector: Bitvector, Threads: 3}),
			pinStats{9, 3999, 61592, 6449, 3999, 24183, 0, 9, Converged, 3, 216, 0}, pull},
		{"boxed/sorted", scalar(Config{Dispatch: Boxed, Vector: Sorted, Threads: 3}),
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
// counting keeps: all of a superstep's messages carry one level.
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
// graph under single-root BFS with the marker declared: forced Push and the
// boxed ablation are the all-edges baseline (every tally equal, no row-walk
// superstep), and each run that may pull pins which supersteps gathered —
// RowSupersteps, the observer's RowWalk flags — and the smaller
// EdgesProcessed, Applies and ColumnsProbed that follow, while Iterations,
// MessagesSent, ActiveSum and the frontier profile stay the baseline's.
func TestStatsPinnedRowWalk(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[uint32, float32](adj, graph.Options{Partitions: 2})
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
		{"pull/threads3", Config{Mode: Pull, Threads: 3}, rowStats{6, 1552, 2498, 1551, 1552, 10748, 0, 6, 4}, "llrrrr"},
	}
	var ref []uint32
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g.SetAllProps(^uint32(0))
			g.SetProp(1, 0)
			g.ClearActive()
			g.SetActive(1)
			walks := ""
			s, err := RunContext(context.Background(), g, bfsFirst{}, tc.cfg, nil, WithObserver(walkLetters(&walks)))
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
				ref = slices.Clone(g.Props())
			} else if !slices.Equal(g.Props(), ref) {
				t.Errorf("distances differ from the forced-push run's")
			}
		})
	}
}

// TestStatsPinnedBlockRowWalk pins the k-wide gather on TestStatsPinned's
// graph: a 4-source and a 16-source BFS block under forced Push — the
// column-walk run — and under Auto and Pull, which gather. Iterations,
// MessagesSent and ActiveSum are the column-walk run's; EdgesProcessed,
// Applies and the per-superstep walks are what the gather makes of them; and
// every column is its solo run's distances under every mode.
func TestStatsPinnedBlockRowWalk(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[uint32, float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := []uint32{1, 40, 700, 3, 9, 2047, 64, 65, 128, 1000, 1500, 5, 6, 7, 8, 300}
	solo := make([][]uint32, len(sources))
	for s, src := range sources {
		g.SetAllProps(^uint32(0))
		g.SetProp(src, 0)
		g.ClearActive()
		g.SetActive(src)
		if _, err := RunContext(context.Background(), g, bfsFirst{}, Config{Mode: Push, Threads: 1}, nil); err != nil {
			t.Fatal(err)
		}
		solo[s] = slices.Clone(g.Props())
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
		{"k4/auto/threads1", 4, Config{Mode: Auto, Threads: 1}, rowStats{6, 4658, 2596, 53244, 5297, 2}, "ssrrls"},
		{"k4/auto/threads3", 4, Config{Mode: Auto, Threads: 3}, rowStats{6, 4658, 2596, 53244, 5297, 2}, "ssrrls"},
		{"k4/pull/threads3", 4, Config{Mode: Pull, Threads: 3}, rowStats{6, 4658, 2596, 53244, 5297, 2}, "llrrll"},
		{"k16/push", 16, Config{Mode: Push, Threads: 3}, rowStats{7, 15529, 4431, 252256, 30045, 0}, "sssssss"},
		{"k16/auto/threads1", 16, Config{Mode: Auto, Threads: 1}, rowStats{7, 15529, 4431, 83196, 15907, 3}, "slrrrss"},
		{"k16/auto/threads3", 16, Config{Mode: Auto, Threads: 3}, rowStats{7, 15529, 4431, 83196, 15907, 3}, "slrrrss"},
		{"k16/pull/threads3", 16, Config{Mode: Pull, Threads: 3}, rowStats{7, 15529, 4431, 83196, 15907, 3}, "llrrrll"},
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
			s, err := RunBlockContext(context.Background(), g, bfsFirst{}, st, tc.cfg, nil, WithObserver(walkLetters(&walks)))
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
