package core

import (
	"context"
	"strings"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

func TestWorkspaceReuseMatchesFreshRuns(t *testing.T) {
	ws := NewWorkspace[float32, float32](5, Bitvector)
	for trial := 0; trial < 3; trial++ {
		g, st := fig3Graph(t, graph.Options{Partitions: 2}), ssspBlockState(1)
		stats, err := RunContext(context.Background(), g, ssspProg{}, st, Config{Threads: 2}, ws)
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{0, 1, 2, 2, 4}
		for v, d := range want {
			if st.Prop(uint32(v), 0) != d {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, st.Prop(uint32(v), 0), d)
			}
		}
		if stats.Iterations == 0 {
			t.Fatal("no iterations")
		}
	}
}

func TestWorkspaceMismatchErrors(t *testing.T) {
	g, st := fig3Graph(t, graph.Options{}), ssspBlockState(1)
	if _, err := RunContext(context.Background(), g, ssspProg{}, st, Config{}, NewWorkspace[float32, float32](3, Bitvector)); err == nil {
		t.Error("wrong-size workspace accepted")
	}
}

func TestWorkspaceBoxedPathIgnoresWorkspace(t *testing.T) {
	g, st := fig3Graph(t, graph.Options{}), ssspBlockState(1)
	// Deliberately mismatched workspace: boxed dispatch must not touch it.
	ws := NewWorkspace[float32, float32](1, Bitvector)
	if _, err := RunContext(context.Background(), g, ssspProg{}, st, Config{Dispatch: Boxed}, ws); err != nil {
		t.Fatalf("boxed path rejected workspace it should ignore: %v", err)
	}
	if st.Prop(4, 0) != 4 {
		t.Errorf("dist[E] = %v", st.Prop(4, 0))
	}
}

// ssspBlockState is the fig3Graph SSSP start, source vertex 0, in each of k
// columns.
func ssspBlockState(k int) *BlockState[float32] {
	st := NewBlockState[float32](5, k)
	st.SetAllProps(inf)
	for s := 0; s < k; s++ {
		st.SetProp(0, s, 0)
		st.Activate(0, s)
	}
	return st
}

// TestBlockBoxedIsOneColumn: the boxed ablation runs one column. A block run
// of two or more columns rejects Boxed and BoxedSorted before any work, and
// a one-column block run takes the boxed front-end over its column — which
// always pulls, whatever Mode says — landing where the inlined run does.
func TestBlockBoxedIsOneColumn(t *testing.T) {
	ctx := context.Background()
	g := fig3Graph(t, graph.Options{Partitions: 2})
	for _, dispatch := range []Dispatch{Boxed, BoxedSorted} {
		st := ssspBlockState(2)
		if _, err := RunContext(ctx, g, ssspBlockProg{}, st, Config{Dispatch: dispatch}, nil); err == nil {
			t.Errorf("RunBlockContext accepted dispatch %d at k = 2", dispatch)
		}
		if st.Prop(4, 1) != inf {
			t.Error("a rejected k = 2 run touched its state")
		}
	}

	want := ssspBlockState(1)
	if _, err := RunContext(ctx, g, ssspBlockProg{}, want, Config{Mode: Push}, nil); err != nil {
		t.Fatal(err)
	}
	for _, dispatch := range []Dispatch{Boxed, BoxedSorted} {
		cfg := Config{Dispatch: dispatch, Mode: Push}
		got := ssspBlockState(1)
		stats, err := RunContext(ctx, g, ssspBlockProg{}, got, cfg, nil)
		if err != nil {
			t.Fatalf("%+v at k = 1: %v", cfg, err)
		}
		if stats.PushSupersteps != 0 || stats.PullSupersteps == 0 {
			t.Errorf("%+v at k = 1 did not run the boxed front-end: %+v", cfg, stats)
		}
		for v := uint32(0); v < 5; v++ {
			if got.Prop(v, 0) != want.Prop(v, 0) {
				t.Errorf("%+v: dist[%d] = %v, inlined run says %v", cfg, v, got.Prop(v, 0), want.Prop(v, 0))
			}
		}
	}
}

// TestWideStateNeedsDstIndependent: a program that reads its destination
// property runs on one column. RunContext rejects a state of two or more
// columns for it before any superstep, with an error naming the program
// type, and leaves the state as it was; a one-column state runs. SpMV, whose
// fold reads one property column, rejects a wide state the same way.
func TestWideStateNeedsDstIndependent(t *testing.T) {
	ctx := context.Background()
	g := fig3Graph(t, graph.Options{Partitions: 2})
	st := ssspBlockState(2)
	stats, err := RunContext(ctx, g, ssspProg{}, st, Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "core.ssspProg") || !strings.Contains(err.Error(), "DstIndependent") {
		t.Fatalf("width-2 run of ssspProg: err = %v, want one naming core.ssspProg and DstIndependent", err)
	}
	if stats.Iterations != 0 || st.Prop(4, 1) != inf {
		t.Errorf("the rejected run did work: %+v, dist[4] = %v", stats, st.Prop(4, 1))
	}
	if _, err := RunContext(ctx, g, ssspProg{}, ssspBlockState(1), Config{}, nil); err != nil {
		t.Errorf("width-1 run of ssspProg: %v", err)
	}
	x := sparse.NewVector[float32](5)
	x.Set(0, 0)
	if _, err := SpMVContext(ctx, g, x, ssspProg{}, st, Config{}); err == nil {
		t.Error("SpMVContext accepted a two-column state")
	}
}
