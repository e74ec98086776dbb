package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
)

// TestRunReleasesPoolHold asserts driver.run holds its pool for exactly the
// superstep loop: one hold is open whenever the observer is called, and none
// once the run returns, however it ends — cancelled, stopped by its
// observer, cut by MaxIterations or converged. The holdPool hook counts the
// holds open on top of the pool's own count.
func TestRunReleasesPoolHold(t *testing.T) {
	var open atomic.Int32
	hold := holdPool
	holdPool = func(p *sched.Pool) func() {
		open.Add(1)
		release := hold(p)
		return func() {
			open.Add(-1)
			release()
		}
	}
	t.Cleanup(func() { holdPool = hold })

	const side = 48 // ~2 × side supersteps of SSSP from a corner
	g, err := graph.NewFromCOO[float32](gen.Grid(gen.GridOptions{Width: side, Height: side, Seed: 3}), graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	for _, tc := range []struct {
		name    string
		maxIter int
		// at is the superstep whose observer call cancels (cancel) or
		// stops the run (stop); 0 for neither.
		at           int
		cancel, stop bool
		want         StopReason
	}{
		{name: "cancelled", at: 3, cancel: true, want: Canceled},
		{name: "observer", at: 3, stop: true, want: StoppedByObserver},
		{name: "max_iterations", maxIter: 4, want: MaxIterations},
		{name: "converged", want: Converged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st := NewBlockState[float32](int(g.NumVertices()), 1)
			st.SetAllProps(inf)
			st.SetProp(0, 0, 0)
			st.Activate(0, 0)
			observed := 0
			stats, err := RunContext(ctx, g, ssspProg{}, st, Config{Threads: 2, MaxIterations: tc.maxIter}, nil,
				WithObserver(func(info IterationInfo) error {
					observed++
					if n := open.Load(); n != 1 {
						t.Errorf("superstep %d: %d holds open inside the loop, want 1", info.Iteration, n)
					}
					switch {
					case info.Iteration == tc.at && tc.cancel:
						cancel()
					case info.Iteration == tc.at && tc.stop:
						return errStop
					}
					return nil
				}))
			if stats.Reason != tc.want {
				t.Fatalf("Reason = %v (err %v), want %v", stats.Reason, err, tc.want)
			}
			if observed == 0 {
				t.Fatal("the observer never ran")
			}
			if n := open.Load(); n != 0 {
				t.Errorf("%d holds open after the run returned, want 0", n)
			}
		})
	}
}
