package algorithms

import (
	"context"
	"fmt"
	"slices"
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
				if _, err := updated.Store().ApplyUpdates(b, lookup); err != nil {
					t.Fatal(err)
				}
			}
			if st := updated.Store().Stats(); st.Compactions != 0 {
				t.Fatalf("updates unexpectedly compacted away the overlay: %+v", st)
			}
			for name, inst := range map[string]Instance{"base": base, "overlay": updated} {
				wantEpoch := inst.Store().Epoch()
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
				// reachability batch must gather, on the as-built graph and
				// over the overlay alike (TestStoreBatchOverOverlay holds the
				// overlay's gather to the fresh build's).
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
						case rows == 0:
							t.Errorf("%s: a hub-root batch never gathered", what)
						}
					}
				}
			}
		})
	}
}

// TestBatchWideSplit runs bfs and reachability batches at the widths the
// block layer treats differently — 2, the narrowest column-mask fold; 16;
// 63; 64, one whole word; 65 and 100, which split into word-sized blocks,
// 65's tail a one-column block folding through the scalar sinks — under
// every mode at one and three workers, over the as-built graph, over a store
// whose every layer carries a pending delta (whose rows the gather reads as
// base and delta merged), and over that store compacted. The chunking must
// reassemble the per-source results in order, each column bit-identical to
// its source's solo run on the same graph, and every run that may pull must
// gather on some superstep.
func TestBatchWideSplit(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 3, MaxWeight: 7})
	n := adj.NRows
	sources := make([]uint32, 100)
	for i := range sources {
		sources[i] = uint32((i * 37) % int(n))
	}
	// One new edge each way between v and v+1 for every 32nd v: every
	// 64-aligned partition, of either scatter direction, takes a delta.
	var touch []graphmat.Update[float32]
	for v := uint32(0); v+1 < n; v += 32 {
		touch = append(touch, graphmat.Update[float32]{Src: v, Dst: v + 1, Val: 2}, graphmat.Update[float32]{Src: v + 1, Dst: v, Val: 3})
	}
	type runner struct {
		store func(*graphmat.COO[float32], int) (*graphmat.Store[float32], error)
		batch func(context.Context, *graphmat.Graph[uint32, float32], []uint32, ...Option) ([][]uint32, graphmat.Stats, error)
		solo  func(context.Context, *graphmat.Graph[uint32, float32], uint32, ...Option) ([]uint32, graphmat.Stats, error)
	}
	for algo, r := range map[string]runner{
		"bfs":          {NewBFSStore, RunBFSBatch, RunBFS},
		"reachability": {NewReachabilityStore, RunReachabilityBatch, RunReachability},
	} {
		t.Run(algo, func(t *testing.T) {
			ctx := context.Background()
			built, err := r.store(adj.Clone(), 4)
			if err != nil {
				t.Fatal(err)
			}
			plain := built.Acquire()
			defer plain.Release()
			store, err := r.store(adj.Clone(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.ApplyEdges(touch); err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.Compactions != 0 || st.OverlayNNZ == 0 {
				t.Fatalf("fixture: the touch batch left no pending overlay: %+v", st)
			}
			overlay := store.Acquire()
			defer overlay.Release()
			store.Compact()
			compacted := store.Acquire()
			defer compacted.Release()
			if compacted.Graph().OverlayNNZ() != 0 {
				t.Fatal("fixture: the compacted snapshot still carries an overlay")
			}
			worlds := map[string]*graphmat.Graph[uint32, float32]{
				"plain": withState[uint32](plain.Graph()), "overlay": withState[uint32](overlay.Graph()), "compacted": withState[uint32](compacted.Graph()),
			}
			for world, g := range worlds {
				solo := make(map[uint32][]uint32)
				for _, src := range sources {
					if solo[src] == nil {
						if solo[src], _, err = r.solo(ctx, g, src); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, k := range []int{2, 16, 63, 64, 65, 100} {
					for _, mode := range []graphmat.Mode{graphmat.Push, graphmat.Pull, graphmat.Auto} {
						for _, threads := range []int{1, 3} {
							what := fmt.Sprintf("%s k=%d mode %s threads %d", world, k, mode, threads)
							got, stats, err := r.batch(ctx, g, sources[:k], WithMode(mode), WithThreads(threads))
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != k {
								t.Fatalf("%s: %d series for %d sources", what, len(got), k)
							}
							for i, src := range sources[:k] {
								if !slices.Equal(got[i], solo[src]) {
									t.Errorf("%s: column %d (source %d) differs from its solo run", what, i, src)
								}
							}
							if mode != graphmat.Push && stats.RowSupersteps == 0 {
								t.Errorf("%s: no row-walk superstep", what)
							}
						}
					}
				}
			}
		})
	}
}
