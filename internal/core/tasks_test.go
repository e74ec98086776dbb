package core

import (
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// TestPartitionsAreTheTasks pins the multiply's task list on a
// partition-starved graph — 2 edge-dense partitions, up to 8 workers: one
// task per partition, whatever the worker count and walk. That is why no
// engine tally but Sched depends on the worker count (TestStatsPinned's
// 3-worker rows equal its 1-worker rows).
func TestPartitionsAreTheTasks(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 32, Seed: 20150831, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockState[float32](int(g.NumVertices()), 1)
	n := int(g.NumVertices())
	x := sparse.NewVector[float32](n)
	for v := 0; v < n; v += 3 {
		x.Set(uint32(v), float32(v))
	}
	for _, threads := range []int{1, 3, 8} {
		for _, mode := range []Mode{Pull, Push} {
			var tally sched.Tally
			cfg := Config{Mode: mode, Threads: threads}
			rp := planRun(g, graph.Out, cfg, false)
			sink := scalarSink(ssspProg{}, x, st.Props(), sparse.NewVector[float32](n))
			rp.multiplyPhase(cfg.exec(&tally), nil, mode, x.Mask().Words(), sink, nil, make([]localStats, threads))
			if got := tally.Tasks.Load(); got != 2 {
				t.Errorf("%s multiply over 2 partitions on %d workers ran %d tasks, want 2", mode, threads, got)
			}
		}
	}
}
