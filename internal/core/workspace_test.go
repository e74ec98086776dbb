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
		stats, err := RunWithWorkspace(g, ssspProg{}, Config{Threads: 2}, ws)
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
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{}, NewWorkspace[float32, float32](3, Bitvector)); err == nil {
		t.Error("wrong-size workspace accepted")
	}
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{}, NewWorkspace[float32, float32](5, Sorted)); err == nil {
		t.Error("wrong-kind workspace accepted")
	}
}

func TestWorkspaceBoxedPathIgnoresWorkspace(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	// Deliberately mismatched workspace: boxed dispatch must not touch it.
	ws := NewWorkspace[float32, float32](1, Bitvector)
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Dispatch: Boxed}, ws); err != nil {
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
	if _, err := RunWithWorkspace(g, ssspProg{}, cfg, NewWorkspace[float32, float32](5, Sorted)); err == nil {
		t.Error("RunWithWorkspace accepted Sorted+Inlined")
	}
	x := sparse.NewVector[float32](5)
	x.Set(0, 0)
	if y, err := SpMVContext[float32, float32, float32, float32](context.Background(), g, x, ssspProg{}, cfg); err == nil || y != nil {
		t.Errorf("SpMVContext accepted Sorted+Inlined: y=%v err=%v", y, err)
	}
	if g.Prop(4) != inf {
		t.Error("a rejected run touched vertex state")
	}
	if _, err := Run(g, ssspProg{}, Config{Vector: Sorted, Dispatch: Boxed}); err != nil {
		t.Fatalf("Sorted+Boxed rejected: %v", err)
	}
	if g.Prop(4) != 4 {
		t.Errorf("Sorted+Boxed dist[E] = %v", g.Prop(4))
	}
}
