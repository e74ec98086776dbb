package algorithms

import (
	"context"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// TestPushRunAllocationsFlat guards the engine's per-superstep path against
// allocating: a push SSSP cut at 64 supersteps allocates no more objects
// than the same run cut at 8. A run allocates its state, scratch and plan
// once; a superstep's two dispatches, its multiply task and its column walks
// (each worker's buffer lives beside its tallies) allocate nothing.
func TestPushRunAllocationsFlat(t *testing.T) {
	const side = 96
	g, err := NewSSSPGraph(gen.Grid(gen.GridOptions{Width: side, Height: side, Seed: 1}), 8)
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(side/2*side + side/2)
	ctx := context.Background()
	allocs := func(supersteps int) float64 {
		cfg := graphmat.Config{Threads: 2, Mode: graphmat.Push, MaxIterations: supersteps}
		return testing.AllocsPerRun(5, func() {
			_, st, err := RunSSSP(ctx, g, src, WithConfig(cfg))
			if err != nil || st.Iterations != supersteps {
				t.Fatalf("run cut at %d supersteps: %d iterations, err %v", supersteps, st.Iterations, err)
			}
		})
	}
	short, long := allocs(8), allocs(64)
	t.Logf("allocations per run: %.0f at 8 supersteps, %.0f at 64", short, long)
	if long > short {
		t.Errorf("a run of 64 supersteps allocates %.0f objects, one of 8 allocates %.0f: the per-superstep path allocates", long, short)
	}
}
