package core

import (
	"os"
	"testing"
	"time"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// nopSink folds nothing, so a timed walk measures only how it finds columns.
type nopSink struct{}

func (nopSink) fold(_ []uint32, _ []float32, cols []colRef) int { return len(cols) }

// TestPushProbeCost measures pushProbeCost's input: the time of one push
// probe against one pull probe, on lib_sparse's two graphs (the 768×768
// grid, and RMAT-18 symmetrized) at random frontiers from 0.1 % to 99 %
// dense. Each mode walks every partition through multiply into a fold-free
// sink, best of seven; a probe is what ColumnsProbed counts. Beside the
// per-probe times it prints each walk's total time and their ratio, the
// figure Auto's choice should track. It only reports, and runs only when
// GRAPHMAT_PROBE_COST is set (it builds both graphs, ~15 s):
//
//	GRAPHMAT_PROBE_COST=1 go test -run '^TestPushProbeCost$' -v ./internal/core
func TestPushProbeCost(t *testing.T) {
	if os.Getenv("GRAPHMAT_PROBE_COST") == "" {
		t.Skip("a timing report: set GRAPHMAT_PROBE_COST=1 to run it")
	}
	rmat := gen.RMAT(gen.RMATOptions{Scale: 18, EdgeFactor: 16, Seed: 1, MaxWeight: 16})
	rmat.Symmetrize()
	for _, c := range []struct {
		name string
		adj  *sparse.COO[float32]
	}{
		{"grid768", gen.Grid(gen.GridOptions{Width: 768, Height: 768, Seed: 1})},
		{"rmat18", rmat},
	} {
		c.adj.SortRowMajor()
		c.adj.DedupKeepFirst()
		c.adj.RemoveSelfLoops()
		g, err := graph.NewFromCOO[float32](c.adj, graph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := int(g.NumVertices())
		for _, fill := range []float64{0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99} {
			rng := gen.NewRNG(7)
			xw := make([]uint64, (n+63)/64)
			for v := range n {
				if rng.Float64() < fill {
					xw[v>>6] |= 1 << (v & 63)
				}
			}
			walk := func(mode Mode) (time.Duration, float64) {
				best := time.Duration(1 << 62)
				var st localStats
				for range 7 {
					st = localStats{}
					start := time.Now()
					for _, l := range g.OutLayers() {
						multiply(mode, l, xw, nopSink{}, nil, &st)
					}
					best = min(best, time.Since(start))
				}
				return best, float64(best.Nanoseconds()) / float64(max(st.probes, 1))
			}
			pushWalk, push := walk(Push)
			pullWalk, pull := walk(Pull)
			t.Logf("%s frontier %5.1f%%: push %6.2f ns/probe, pull %5.2f ns/probe, ratio %5.2f; walk push %v, pull %v, ratio %5.2f",
				c.name, 100*fill, push, pull, push/pull, pushWalk, pullWalk, pushWalk.Seconds()/pullWalk.Seconds())
		}
	}
}
