package algorithms

import (
	"context"
	"fmt"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// The batch-layer differential — the tentpole's acceptance bar: for EVERY
// batchable algorithm × {Pull, Push, Auto} × {1, 2, 4 threads} × {as-built
// graph, delta-overlay snapshot}, a k-source RunBatch must be bit-identical
// per source to k single-source Run calls. The scalar engine is the oracle
// (its own differential suite pins it across modes), so one scalar sweep per
// source serves as the reference for every batched mode. The same sweep
// holds the k-wide gather to its scope: bfs and reachability batches gather,
// sssp, widest and ppr batches never do, and the frontier tallies of a batch
// that gathered are its column-walk run's.

func TestBatchDifferentialAllModes(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	n := baseAdj.NRows
	batches := updateBatches(n)

	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	var err error
	for _, b := range batches {
		if master, err = graphmat.ApplyToAdjacency(master, b); err != nil {
			t.Fatal(err)
		}
	}
	lookup := NewRawEdgeLookup(master)

	sources := []uint32{0, 1, 3, 17, 42, 100, 255, 511, 700, 900, 1023, 2}
	batchParams := map[string]Params{
		"bfs":          {Sources: sources},
		"sssp":         {Sources: sources},
		"ppr":          {Sources: sources, Iterations: 15},
		"reachability": {Sources: sources},
		"widest":       {Sources: sources},
	}

	for _, algo := range Names() {
		spec, _ := Lookup(algo)
		bp, batchable := batchParams[algo]
		if spec.Batchable != batchable {
			t.Fatalf("%s: Batchable=%v but differential matrix says %v", algo, spec.Batchable, batchable)
		}
		if !batchable {
			// Non-batchable algorithms must refuse cleanly.
			inst, err := spec.Build(baseAdj.Clone(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.RunBatch(context.Background(), nil, Params{}, nil); err != ErrBatchUnsupported {
				t.Fatalf("%s: RunBatch error = %v, want ErrBatchUnsupported", algo, err)
			}
			continue
		}
		t.Run(algo, func(t *testing.T) {
			// Two property-graph states: the as-built base and a snapshot
			// with applied update batches still living in the delta overlay.
			base, err := spec.Build(baseAdj.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			updated, err := spec.Build(baseAdj.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if _, err := updated.ApplyUpdates(b, lookup); err != nil {
					t.Fatal(err)
				}
			}
			if st := updated.StoreStats(); st.Compactions != 0 {
				t.Fatalf("updates unexpectedly compacted away the overlay: %+v", st)
			}
			for name, inst := range map[string]Instance{"base": base, "overlay": updated} {
				wantEpoch := inst.Epoch()
				// Scalar oracle: one single-source run per source.
				oracle := make([][]float64, len(sources))
				for i, src := range sources {
					sp := bp
					sp.Sources = nil
					sp.Source = src
					res, err := inst.Run(sp, nil)
					if err != nil {
						t.Fatal(err)
					}
					oracle[i] = res.Values
				}
				// Push first: forced push folds every frontier edge, so its
				// batch is the column-walk run the gathering modes' frontier
				// tallies are held to. Sources 0, 1 and 3 are hubs of the
				// giant component, whose dense supersteps a bfs or
				// reachability batch must gather on the as-built graph (the
				// overlay's layers with pending updates keep the column walk;
				// TestStoreBatchOverOverlay pins that side).
				for _, threads := range []int{1, 2, 4} {
					var push graphmat.Stats
					for _, mode := range []graphmat.Mode{graphmat.Push, graphmat.Pull, graphmat.Auto} {
						p := bp
						p.Mode, p.Threads = mode, threads
						what := fmt.Sprintf("%s mode %s threads %d", name, mode, threads)
						got, err := inst.RunBatch(context.Background(), nil, p, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got.Epoch != wantEpoch {
							t.Fatalf("%s: batch epoch %d, want %d", what, got.Epoch, wantEpoch)
						}
						if len(got.Values) != len(sources) {
							t.Fatalf("%s: %d value series for %d sources", what, len(got.Values), len(sources))
						}
						for i := range sources {
							sameSeries(t, fmt.Sprintf("%s source %d", what, sources[i]), oracle[i], got.Values[i])
						}
						if mode == graphmat.Push {
							push = got.Stats
						}
						sameTallies(t, what+" vs the push batch", algo, push, got.Stats)
						switch rows := got.Stats.RowSupersteps; {
						case !declaresFirstMessageFinal(t, algo) || mode == graphmat.Push:
							if rows != 0 {
								t.Errorf("%s: %d row-walk supersteps", what, rows)
							}
						case name == "base" && rows == 0:
							t.Errorf("%s: a hub-root batch on a graph with no pending updates never gathered", what)
						}
					}
				}
			}
		})
	}
}

// TestBatchWideSplit runs a batch wider than one block (k > 64), asserting
// the word-sized chunking reassembles per-source results in order.
func TestBatchWideSplit(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 3, MaxWeight: 7})
	g, err := NewBFSGraph(adj, 4)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]uint32, 100)
	for i := range sources {
		sources[i] = uint32((i * 37) % 256)
	}
	dists, _, err := RunBFSBatch(context.Background(), g, sources)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		oracle, _, err := RunBFS(context.Background(), g, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range oracle {
			if dists[i][v] != oracle[v] {
				t.Fatalf("source %d (batch index %d): dist[%d] = %d, want %d", src, i, v, dists[i][v], oracle[v])
			}
		}
	}
}
