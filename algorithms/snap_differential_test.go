package algorithms

import (
	"path/filepath"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// The snapshot differential — the persistence acceptance bar: for EVERY
// registered algorithm × {Pull, Push, Auto}, an instance Opened from an
// mmap'd GMATSNAP file must produce results bit-identical to the on-heap
// Build it was imaged from, both on the pristine graph and after the same
// update batches (the WAL-replay path applies updates to a mapped base
// exactly like this) — values, series, counts and engine statistics alike.
func TestSnapDifferentialAllAlgorithmsAllModes(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	n := baseAdj.NRows
	batches := updateBatches(n)

	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)

	params := map[string]Params{
		"bfs":          {Source: 0},
		"sssp":         {Source: 0},
		"pagerank":     {Iterations: 15},
		"ppr":          {Sources: []uint32{0, 3}, Iterations: 15},
		"components":   {},
		"triangles":    {},
		"hits":         {Iterations: 10},
		"reachability": {Source: 0},
		"widest":       {Source: 0},
	}
	hub := hubOf(baseAdj)
	dir := t.TempDir()
	for _, algo := range Names() {
		p, ok := params[algo]
		if !ok {
			t.Fatalf("registered algorithm %q missing from the snapshot differential matrix", algo)
		}
		t.Run(algo, func(t *testing.T) {
			spec, _ := Lookup(algo)
			if spec.Open == nil {
				t.Fatalf("%s has no Open constructor: every registered algorithm must boot from a snapshot", algo)
			}
			heap, err := spec.Build(baseAdj.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			img, err := heap.SnapImage(99)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, algo+".snap")
			if err := graphmat.WriteSnap(path, img); err != nil {
				t.Fatal(err)
			}
			sf, err := graphmat.OpenSnap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			if sf.Image().Tag != 99 {
				t.Errorf("tag = %d, want the writer's mark 99", sf.Image().Tag)
			}
			mapped, err := spec.Open(sf.Image())
			if err != nil {
				t.Fatal(err)
			}
			if mapped.NumEdges() != heap.NumEdges() {
				t.Fatalf("edge counts diverge: mapped %d vs heap %d", mapped.NumEdges(), heap.NumEdges())
			}

			for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto} {
				pm := p
				pm.Mode = mode
				refRes, err := heap.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := mapped.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, algo+" mapped, mode "+mode.String(), refRes, gotRes)
			}

			// The flat fold over a mapped base: its source-column index is
			// derived state, built on the heap beside the mapping on the
			// first all-active superstep. One worker keeps every pull task
			// whole, whatever GOMAXPROCS is.
			if allActive := map[string]bool{"pagerank": true, "ppr": true, "hits": true, "components": true}; allActive[algo] {
				pm := p
				pm.Mode, pm.Threads = graphmat.Pull, 1
				refRes, err := heap.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := mapped.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, algo+" mapped, all-active pull", refRes, gotRes)
				if flat := gotRes.Stats.FlatEdges; flat == 0 || flat != refRes.Stats.FlatEdges {
					t.Errorf("mapped all-active pull folded %d edges flat, heap %d", flat, refRes.Stats.FlatEdges)
				}
			}

			// The row walk over a mapped base: its row-major view is derived
			// state too, built on the heap beside the mapping by the first
			// superstep that gathers. From the hub of the giant component a
			// forced-pull run of either FirstMessageFinal program must
			// gather, and on the same supersteps as the heap instance.
			if declaresFirstMessageFinal(t, algo) {
				pm := Params{Source: hub, Mode: graphmat.Pull}
				refRes, err := heap.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := mapped.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, algo+" mapped, row walk", refRes, gotRes)
				if rows := gotRes.Stats.RowSupersteps; rows == 0 || rows != refRes.Stats.RowSupersteps {
					t.Errorf("mapped pull from the hub ran %d row-walk supersteps, heap %d", rows, refRes.Stats.RowSupersteps)
				}
			}

			// Updates over the mapped base — the boot-time WAL replay path —
			// must track the on-heap instance batch for batch.
			m := master
			for i, b := range batches {
				if m, err = graphmat.ApplyToAdjacency(m, b); err != nil {
					t.Fatal(err)
				}
				lookup := NewRawEdgeLookup(m)
				refApply, err := heap.ApplyUpdates(b, lookup)
				if err != nil {
					t.Fatal(err)
				}
				gotApply, err := mapped.ApplyUpdates(b, lookup)
				if err != nil {
					t.Fatal(err)
				}
				if gotApply.Epoch != refApply.Epoch {
					t.Fatalf("batch %d: mapped epoch %d, heap epoch %d", i, gotApply.Epoch, refApply.Epoch)
				}
			}
			pm := p
			pm.Mode = graphmat.Auto
			refRes, err := heap.Run(pm, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := mapped.Run(pm, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, algo+" mapped after updates", refRes, gotRes)
		})
	}
}
