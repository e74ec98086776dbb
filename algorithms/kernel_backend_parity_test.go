package algorithms

import (
	"testing"

	"graphmat"
	"graphmat/internal/kernels"
)

// Algorithm-level backend differential: every registered algorithm, under
// every kernel mode, must produce bit-identical results and work tallies on
// every SIMD backend the CPU supports as it does under the scalar oracle —
// which traversal a superstep takes, the row walk included, is decided from
// counts no backend changes, so RowSupersteps is one of those tallies.
// The SemiringSumF64 programs (pagerank, ppr, hits) route through the SIMD
// scatter/fold fast paths; the rest prove the frontier word ops and scans the
// generic kernels sit on are backend-oblivious too. Skipped on CPUs with no
// SIMD backend (the matrix collapses to scalar vs scalar).
func TestAlgorithmsKernelBackendParity(t *testing.T) {
	simd := kernels.Supported()[1:]
	if len(simd) == 0 {
		t.Skip("no SIMD backend supported on this CPU")
	}
	algos := []struct {
		name   string
		params Params
	}{
		{"bfs", Params{Source: 0}},
		{"sssp", Params{Source: 0}},
		{"pagerank", Params{Iterations: 12}},
		{"ppr", Params{Sources: []uint32{0, 3}, Iterations: 12}},
		{"components", Params{}},
		{"triangles", Params{}},
		{"hits", Params{Iterations: 8}},
		{"reachability", Params{Source: 0}},
		{"widest", Params{Source: 0}},
	}
	for name, build := range modeGoldens() {
		for _, a := range algos {
			t.Run(name+"/"+a.name, func(t *testing.T) {
				for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto} {
					p := a.params
					p.Mode = mode
					restore, ok := kernels.ForceBackend(kernels.Scalar)
					if !ok {
						t.Fatal("scalar backend refused")
					}
					ref := modeRun(t, a.name, build, p)
					restore()
					for _, b := range simd {
						restore, ok := kernels.ForceBackend(b)
						if !ok {
							t.Fatalf("backend %s reported supported but ForceBackend refused it", b)
						}
						res := modeRun(t, a.name, build, p)
						restore()
						tag := a.name + " " + mode.String() + " " + b.String()
						sameSeries(t, tag+" values", ref.Values, res.Values)
						for series := range ref.Series {
							sameSeries(t, tag+" series "+series, ref.Series[series], res.Series[series])
						}
						if (ref.Count == nil) != (res.Count == nil) || (ref.Count != nil && *res.Count != *ref.Count) {
							t.Errorf("%s: count %v, scalar %v", tag, res.Count, ref.Count)
						}
						if res.Stats.Iterations != ref.Stats.Iterations ||
							res.Stats.EdgesProcessed != ref.Stats.EdgesProcessed ||
							res.Stats.MessagesSent != ref.Stats.MessagesSent ||
							res.Stats.Applies != ref.Stats.Applies ||
							res.Stats.RowSupersteps != ref.Stats.RowSupersteps {
							t.Errorf("%s: stats %+v, scalar %+v", tag, res.Stats, ref.Stats)
						}
					}
				}
			})
		}
	}
}
