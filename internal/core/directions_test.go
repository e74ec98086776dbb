package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// inBFS is hop counting scattered backwards along in-edges.
type inBFS struct{ bfsProg }

func (inBFS) Direction() graph.Direction { return graph.In }

// TestUnbuiltDirectionIsAnError runs an In-direction program on a pinned
// snapshot of a store built Out-only. A graph's traversal structures are
// the ones its Options.Directions built, so every entry point refuses the
// run before any superstep with an error naming In — two concurrent block
// runs on the one snapshot included (under -race this is where a lazy build
// would race) — and the graph still has no In layers afterwards.
func TestUnbuiltDirectionIsAnError(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 6, Seed: 3})
	store, err := graph.NewStore[float32](adj, graph.Options{Partitions: 4, Directions: graph.Out})
	if err != nil {
		t.Fatal(err)
	}
	snap := store.Acquire()
	defer snap.Release()
	g := snap.Graph()
	n := int(g.NumVertices())
	namesIn := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "Direction In") {
			t.Errorf("%s: error %v, want one naming Direction In", what, err)
		}
	}

	st := NewBlockState[uint32](n, 1)
	st.SetProp(0, 0, 0)
	st.Activate(0, 0)
	stats, err := RunContext(context.Background(), g, inBFS{}, st, Config{Threads: 2}, nil)
	namesIn("RunContext", err)
	if stats.Iterations != 0 {
		t.Errorf("RunContext ran %d supersteps before failing", stats.Iterations)
	}
	_, err = RunContext(context.Background(), g, inBFS{}, NewBlockState[uint32](n, 1), Config{Dispatch: Boxed}, nil)
	namesIn("RunContext boxed", err)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewBlockState[uint32](n, 2)
			st.SetProp(0, 0, 0)
			st.Activate(0, 0)
			_, errs[i] = RunContext(context.Background(), g, inBFS{}, st, Config{Threads: 2}, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		namesIn("RunBlockContext", err)
	}

	x := sparse.NewVector[uint32](n)
	x.Set(0, 0)
	y, err := SpMVContext(context.Background(), g, x, inBFS{}, NewBlockState[uint32](n, 1), Config{})
	namesIn("SpMVContext", err)
	if y != nil {
		t.Error("SpMVContext returned a result with its error")
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			namesIn("SpMV panic", err)
		}()
		SpMV(g, x, inBFS{}, NewBlockState[uint32](n, 1), Config{})
	}()

	if g.InLayers() != nil {
		t.Error("a failed run built the In layers")
	}
}
