package core

import (
	"context"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

func TestWorkspaceReuseMatchesFreshRuns(t *testing.T) {
	ws := NewWorkspace[float32, float32](5, Bitvector)
	for trial := 0; trial < 3; trial++ {
		g := fig3Graph(t, graph.Options{Partitions: 2})
		stats, err := RunContext(context.Background(), g, ssspProg{}, Config{Threads: 2}, ws)
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{0, 1, 2, 2, 4}
		for v, d := range want {
			if g.Prop(uint32(v)) != d {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, g.Prop(uint32(v)), d)
			}
		}
		if stats.Iterations == 0 {
			t.Fatal("no iterations")
		}
	}
}

func TestWorkspaceMismatchErrors(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	if _, err := RunContext(context.Background(), g, ssspProg{}, Config{}, NewWorkspace[float32, float32](3, Bitvector)); err == nil {
		t.Error("wrong-size workspace accepted")
	}
}

func TestWorkspaceBoxedPathIgnoresWorkspace(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	// Deliberately mismatched workspace: boxed dispatch must not touch it.
	ws := NewWorkspace[float32, float32](1, Bitvector)
	if _, err := RunContext(context.Background(), g, ssspProg{}, Config{Dispatch: Boxed}, ws); err != nil {
		t.Fatalf("boxed path rejected workspace it should ignore: %v", err)
	}
	if g.Prop(4) != 4 {
		t.Errorf("dist[E] = %v", g.Prop(4))
	}
}

// TestSortedInlinedRejected pins the one Vector × Dispatch combination with
// no code path: every inlined entry point must return an error — never fall
// back to the bitvector walk silently — while Sorted keeps working on the
// Boxed path (the Figure 7 "naive" step; its results are held equal to the
// inlined bitvector runs by TestSSSPFigure3, TestQuickConfigEquivalence and
// TestLayeredRunsMatchFreshBuild).
func TestSortedInlinedRejected(t *testing.T) {
	cfg := Config{Vector: Sorted}
	g := fig3Graph(t, graph.Options{})
	if _, err := Run(g, ssspProg{}, cfg); err == nil {
		t.Error("Run accepted Sorted+Inlined")
	}
	if _, err := RunContext[float32, float32, float32, float32](context.Background(), g, ssspProg{}, cfg, nil); err == nil {
		t.Error("RunContext accepted Sorted+Inlined")
	}
	if _, err := RunContext(context.Background(), g, ssspProg{}, cfg, NewWorkspace[float32, float32](5, Sorted)); err == nil {
		t.Error("RunContext with a workspace accepted Sorted+Inlined")
	}
	x := sparse.NewVector[float32](5)
	x.Set(0, 0)
	if y, err := SpMVContext[float32, float32, float32, float32](context.Background(), g, x, ssspProg{}, cfg); err == nil || y != nil {
		t.Errorf("SpMVContext accepted Sorted+Inlined: y=%v err=%v", y, err)
	}
	if g.Prop(4) != inf {
		t.Error("a rejected run touched vertex state")
	}
	for _, k := range []int{1, 2} {
		st := ssspBlockState(k)
		if _, err := RunBlockContext(context.Background(), g, ssspBlockProg{}, st, cfg, nil); err == nil {
			t.Errorf("RunBlockContext accepted Sorted+Inlined at k = %d", k)
		}
		if st.Prop(4, k-1) != inf {
			t.Errorf("a rejected k = %d run touched its state", k)
		}
	}
	if _, err := Run(g, ssspProg{}, Config{Vector: Sorted, Dispatch: Boxed}); err != nil {
		t.Fatalf("Sorted+Boxed rejected: %v", err)
	}
	if g.Prop(4) != 4 {
		t.Errorf("Sorted+Boxed dist[E] = %v", g.Prop(4))
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
// of two or more columns rejects Dispatch: Boxed before any work, and a
// one-column block run takes the boxed front-end over its column — which
// always pulls, whatever Mode says — landing where the inlined run does.
func TestBlockBoxedIsOneColumn(t *testing.T) {
	ctx := context.Background()
	g := fig3Graph(t, graph.Options{Partitions: 2})
	st := ssspBlockState(2)
	if _, err := RunBlockContext(ctx, g, ssspBlockProg{}, st, Config{Dispatch: Boxed}, nil); err == nil {
		t.Error("RunBlockContext accepted Boxed at k = 2")
	}
	if st.Prop(4, 1) != inf {
		t.Error("a rejected k = 2 run touched its state")
	}

	want := ssspBlockState(1)
	if _, err := RunBlockContext(ctx, g, ssspBlockProg{}, want, Config{Mode: Push}, nil); err != nil {
		t.Fatal(err)
	}
	for _, vec := range []VectorKind{Bitvector, Sorted} {
		cfg := Config{Vector: vec, Dispatch: Boxed, Mode: Push}
		got := ssspBlockState(1)
		stats, err := RunBlockContext(ctx, g, ssspBlockProg{}, got, cfg, nil)
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
