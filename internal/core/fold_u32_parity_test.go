package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphmat/internal/graph"
)

// SemiringMinU32 makes the promise the float folds make: the call-free
// uint32 min fold must be indistinguishable from the generic callback loop.
// The test runs the marked ccFused against the unmarked ccProg — the same
// label propagation, forced down the generic path — across modes, threads and
// plain versus overlay (base+delta) partitions, and holds labels and every
// Stats field but the wall-clock Sched to exact equality. TestSemiringSinks
// pins that the marked twin takes the fused sink.

// ccFused is ccProg plus the (min, passthrough) uint32 marker.
type ccFused struct{ ccProg }

func (ccFused) Semiring() Semiring { return SemiringMinU32 }

// u32Label is vertex v's starting label: an odd multiplier spreads the
// labels over the whole uint32 range, and the extremes 0 and MaxUint32 are
// sprinkled in.
func u32Label(v uint32) uint32 {
	switch v % 61 {
	case 0:
		return math.MaxUint32
	case 1:
		return 0
	}
	return v * 2654435761
}

func runLabels[P Program[uint32, float32, uint32, uint32]](t *testing.T, g *graph.Graph[float32], p P, cfg Config) ([]uint32, Stats) {
	t.Helper()
	st := NewBlockState[uint32](int(g.NumVertices()), 1)
	st.InitProps(func(v uint32, _ int) uint32 { return u32Label(v) })
	st.ActivateAllMask(1)
	stats, err := Run(g, p, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats.Sched = SchedStats{}
	return slices.Clone(st.Props()), stats
}

func TestU32MinFoldFastPathParity(t *testing.T) {
	for world, g := range f32ParityWorlds(t, 17, 4) {
		for _, mode := range []Mode{Pull, Push, Auto} {
			for _, threads := range []int{1, 3} {
				cfg := Config{Mode: mode, Threads: threads}
				t.Run(fmt.Sprintf("%s/mode_%s_threads_%d", world, mode, threads), func(t *testing.T) {
					ref, refStats := runLabels(t, g, ccProg{}, cfg)
					got, gotStats := runLabels(t, g, ccFused{}, cfg)
					if refStats.Iterations < 3 {
						t.Fatalf("vacuous: the run converged in %d supersteps", refStats.Iterations)
					}
					if mode == Pull && refStats.FlatEdges == 0 {
						t.Fatal("vacuous: no pull superstep folded a flat edge range")
					}
					for v := range ref {
						if got[v] != ref[v] {
							t.Fatalf("label[%d] = %d, generic %d", v, got[v], ref[v])
						}
					}
					if gotStats != refStats {
						t.Errorf("stats\n  fused %+v\ngeneric %+v", gotStats, refStats)
					}
				})
			}
		}
	}
}
