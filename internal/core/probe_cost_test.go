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
// grid, and RMAT-18 symmetrized) at random frontiers of four densities. Each
// mode walks every partition through multiply into a fold-free sink, best of
// seven; a probe is what ColumnsProbed counts. It only reports, and runs only
// when GRAPHMAT_PROBE_COST is set (it builds both graphs, ~10 s):
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
		g, err := graph.NewFromCOO[float32, float32](c.adj, graph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := int(g.NumVertices())
		for _, fill := range []float64{0.001, 0.01, 0.05, 0.25} {
			rng := gen.NewRNG(7)
			xw := make([]uint64, (n+63)/64)
			for v := range n {
				if rng.Float64() < fill {
					xw[v>>6] |= 1 << (v & 63)
				}
			}
			perProbe := func(mode Mode) float64 {
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
				return float64(best.Nanoseconds()) / float64(max(st.probes, 1))
			}
			push, pull := perProbe(Push), perProbe(Pull)
			t.Logf("%s frontier %5.1f%%: push %6.2f ns/probe, pull %5.2f ns/probe, ratio %5.2f", c.name, 100*fill, push, pull, push/pull)
		}
	}
}
