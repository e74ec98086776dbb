package core

import (
	"fmt"
	"math"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Engine-level differential for the versioned store: a run against a
// snapshot carrying delta overlays must produce bit-identical vertex
// properties and work tallies to the same run against a graph freshly built
// from the equivalent edge set — across every kernel mode, both scatter
// directions, and the boxed dispatch path (both vector representations).

// layeredBatches returns update batches that force every overlay shape:
// inserts into existing and brand-new columns, upserts, entry deletes,
// whole-column tombstones, and resurrection of a deleted edge.
func layeredBatches(n uint32) [][]graph.Update[float32] {
	hub := uint32(1) // RMAT quadrant bias makes low ids the heavy columns
	return [][]graph.Update[float32]{
		{
			{Src: hub, Dst: n - 1, Val: 3},
			{Src: n - 1, Dst: hub, Val: 4},
			{Src: 0, Dst: 1, Val: 5}, // likely upsert of an existing edge
			{Src: n - 2, Dst: n - 3, Val: 6},
		},
		{
			{Src: hub, Dst: n - 1, Del: true},
			{Src: 2, Dst: 2, Del: true},
			{Src: 7, Dst: 9, Val: 8},
			{Src: 7, Dst: 9, Del: true},
			{Src: 7, Dst: 9, Val: 9}, // delete-then-reinsert within one batch
		},
	}
}

// applyBrute applies batches to a normalized triple list by brute force,
// preserving first-occurrence order for survivors, appending new edges.
func applyBrute(coo *sparse.COO[float32], batches [][]graph.Update[float32]) *sparse.COO[float32] {
	type key struct{ r, c uint32 }
	live := map[key]float32{}
	var order []key
	for _, t := range coo.Entries {
		k := key{t.Row, t.Col}
		live[k] = t.Val
		order = append(order, k)
	}
	for _, b := range batches {
		for _, u := range b {
			k := key{u.Src, u.Dst}
			if u.Del {
				delete(live, k)
				continue
			}
			if _, ok := live[k]; !ok {
				order = append(order, k)
			}
			live[k] = u.Val
		}
	}
	out := sparse.NewCOO[float32](coo.NRows, coo.NCols)
	for _, k := range order {
		if v, ok := live[k]; ok {
			out.Add(k.r, k.c, v)
			delete(live, k)
		}
	}
	return out
}

func initDiffState(g *graph.Graph[float32, float32], roots []uint32) {
	g.SetAllProps(inf)
	g.ClearActive()
	for _, r := range roots {
		g.SetProp(r, 0)
		g.SetActive(r)
	}
}

func TestLayeredRunsMatchFreshBuild(t *testing.T) {
	base := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11, MaxWeight: 9})
	base.SortRowMajor()
	base.DedupKeepFirst()
	n := base.NRows
	batches := layeredBatches(n)

	opts := graph.Options{Partitions: 6, Directions: graph.Both, CompactFraction: -1}
	store, err := graph.NewStore[float32, float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := store.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := store.Acquire()
	defer snap.Release()
	if snap.Graph().OverlayNNZ() == 0 {
		t.Fatal("test is vacuous: no overlay survived the batches")
	}

	fresh, err := graph.NewFromCOO[float32, float32](applyBrute(base, batches), opts)
	if err != nil {
		t.Fatal(err)
	}

	roots := []uint32{0, n - 1}
	programs := []struct {
		name string
		run  func(g *graph.Graph[float32, float32], cfg Config) Stats
	}{
		{"sssp_out", func(g *graph.Graph[float32, float32], cfg Config) Stats {
			s, _ := Run[float32, float32, float32, float32](g, ssspProg{}, cfg)
			return s
		}},
		{"sssp_in", func(g *graph.Graph[float32, float32], cfg Config) Stats {
			s, _ := Run[float32, float32, float32, float32](g, inDir{}, cfg)
			return s
		}},
		{"sssp_both", func(g *graph.Graph[float32, float32], cfg Config) Stats {
			s, _ := Run[float32, float32, float32, float32](g, bothDir{}, cfg)
			return s
		}},
	}
	configs := []Config{
		{Mode: Pull},
		{Mode: Push},
		{Mode: Auto},
		{Dispatch: Boxed},
		{Dispatch: Boxed, Vector: Sorted},
	}
	for _, prog := range programs {
		// Reference: the fresh build under forced pull.
		initDiffState(fresh, roots)
		refStats := prog.run(fresh, Config{Mode: Pull, MaxIterations: 40})
		refProps := append([]float32(nil), fresh.Props()...)
		for _, cfg := range configs {
			cfg.MaxIterations = 40
			name := fmt.Sprintf("%s/mode_%s_vec_%d_disp_%d", prog.name, cfg.Mode, cfg.Vector, cfg.Dispatch)
			// Each run takes a fresh view of the pinned snapshot: shared
			// immutable structure, private run state.
			g := snap.View()
			initDiffState(g, roots)
			stats := prog.run(g, cfg)
			for v, want := range refProps {
				if got := g.Props()[v]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: prop[%d] = %v (%x), fresh pull = %v (%x)",
						name, v, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
			if cfg.Dispatch != Boxed {
				if stats.Iterations != refStats.Iterations ||
					stats.MessagesSent != refStats.MessagesSent ||
					stats.EdgesProcessed != refStats.EdgesProcessed ||
					stats.Applies != refStats.Applies {
					t.Errorf("%s: stats diverge: %+v vs fresh %+v", name, stats, refStats)
				}
			}
		}
	}
}

// TestLayeredSpMVMatchesFreshBuild covers the single-shot SpMV seam over an
// overlay snapshot in every mode.
func TestLayeredSpMVMatchesFreshBuild(t *testing.T) {
	base := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 7, MaxWeight: 5})
	base.SortRowMajor()
	base.DedupKeepFirst()
	n := base.NRows
	batches := layeredBatches(n)

	opts := graph.Options{Partitions: 5, CompactFraction: -1}
	store, err := graph.NewStore[float32, float32](base.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := store.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := store.Acquire()
	defer snap.Release()
	fresh, err := graph.NewFromCOO[float32, float32](applyBrute(base, batches), opts)
	if err != nil {
		t.Fatal(err)
	}

	x := sparse.NewVector[float32](int(n))
	for v := uint32(0); v < n; v += 3 {
		x.Set(v, float32(v%11))
	}
	ref := SpMV[float32, float32, float32, float32](fresh, x, ssspProg{}, Config{Mode: Pull})
	for _, cfg := range []Config{{Mode: Pull}, {Mode: Push}, {Mode: Auto}} {
		y := SpMV[float32, float32, float32, float32](snap.View(), x, ssspProg{}, cfg)
		if y.NNZ() != ref.NNZ() {
			t.Fatalf("mode %s vec %d: nnz %d vs %d", cfg.Mode, cfg.Vector, y.NNZ(), ref.NNZ())
		}
		ref.Iterate(func(i uint32, want float32) {
			got, ok := y.GetChecked(i)
			if !ok || math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("mode %s vec %d: y[%d] = %v,%v want %v", cfg.Mode, cfg.Vector, i, got, ok, want)
			}
		})
	}
}
