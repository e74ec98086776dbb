package algorithms

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphmat/internal/gen"
)

// TestInstanceScalarRunsShareNoState runs the algorithms with no source
// parameter — pagerank, components, hits and triangles — from four
// goroutines at once, each goroutine running all four through
// Instance.RunContext on one instance per algorithm, with no lock around
// them. A served scalar run owns its vertex state, so concurrent runs share
// only the pinned snapshot's edges: every result must be bit-identical to
// a solo run of the same instance, and every pin must be released. Under
// -race the graph is smaller, as in the root acceptance tests.
func TestInstanceScalarRunsShareNoState(t *testing.T) {
	scale := 10
	if raceEnabled {
		scale = 7
	}
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 23, MaxWeight: 9})
	names := []string{"pagerank", "components", "hits", "triangles"}
	insts := make([]Instance, len(names))
	solo := make([]Result, len(names))
	p := Params{Iterations: 12, Threads: 2}
	for a, name := range names {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		inst, err := spec.Build(adj.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		insts[a] = inst
		if solo[a], err = inst.Run(p, nil); err != nil {
			t.Fatalf("%s solo: %v", name, err)
		}
	}

	const runners = 4
	got := make([][]Result, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for r := range runners {
		got[r] = make([]Result, len(names))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				a := (i + r) % len(names) // each runner starts on a different algorithm
				res, err := insts[a].RunContext(context.Background(), p, nil, nil)
				if err != nil {
					errs[r] = fmt.Errorf("%s: %w", names[a], err)
					return
				}
				got[r][a] = res
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", r, err)
		}
	}
	for r := range runners {
		for a, name := range names {
			sameAnswer(t, fmt.Sprintf("runner %d %s", r, name), solo[a], got[r][a])
		}
	}
	for a, name := range names {
		if pinned := insts[a].Store().Stats().Pinned; pinned != 0 {
			t.Errorf("%s: %d snapshots still pinned after the runs", name, pinned)
		}
	}
}
