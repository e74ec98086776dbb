// Snapshot-isolation test for the versioned store, designed to run under
// -race (this package is in the CI race matrix): algorithm runs on pinned
// snapshots proceed concurrently with update batches and compactions, and
// every run must observe exactly its epoch — edge count, epoch number and
// bit-identical BFS distances — from acquire to release.
//
// The file lives in the external test package so it can drive the real
// engine (graphmat + algorithms) against store snapshots; the internal
// white-box tests live in store_test.go.
package graph_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// isolationBatches returns deterministic property-level batches for the
// symmetrized BFS store: symmetric pairs so distances actually move.
func isolationBatches(n uint32, rounds int) [][]graphmat.EdgeUpdate {
	var out [][]graphmat.EdgeUpdate
	x := uint64(0xbeef)
	for r := 0; r < rounds; r++ {
		var b []graphmat.EdgeUpdate
		for j := 0; j < 120; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			u, v := uint32(x>>33)%n, uint32(x>>13)%n
			if u == v {
				continue
			}
			del := x%3 == 0
			b = append(b,
				graphmat.EdgeUpdate{Src: u, Dst: v, Val: 1, Del: del},
				graphmat.EdgeUpdate{Src: v, Dst: u, Val: 1, Del: del})
		}
		out = append(out, b)
	}
	return out
}

// freshState pairs a pinned snapshot's edges with a run's own one-column
// vertex state.
func freshState(snap *graphmat.Snapshot[float32]) *graphmat.Graph[uint32, float32] {
	g := snap.Graph()
	return &graphmat.Graph[uint32, float32]{Edges: g, BlockState: graphmat.NewBlockState[uint32](int(g.NumVertices()), 1)}
}

func TestStoreSnapshotIsolationRace(t *testing.T) {
	scale := 9
	if testing.Short() {
		scale = 7
	}
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 77})
	n := adj.NRows
	const rounds = 6
	batches := isolationBatches(n, rounds)
	root := uint32(0)

	// Oracle pass: a private store walked sequentially records, per epoch,
	// the expected edge count and reference BFS distances. ApplyEdges is
	// deterministic, so the live store must reproduce these exactly.
	oracle, err := algorithms.NewBFSStore(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := map[uint64]int64{0: oracle.NumEdges()}
	wantDist := map[uint64][]uint32{}
	record := func(epoch uint64) {
		snap := oracle.Acquire()
		defer snap.Release()
		dist, _, err := algorithms.RunBFS(context.Background(), freshState(snap), root, algorithms.WithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		wantDist[epoch] = dist
	}
	record(0)
	for i, b := range batches {
		if _, err := oracle.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
		if i == rounds/2 {
			oracle.Compact() // keep the oracle's trajectory identical to the live store's
		}
		wantEdges[oracle.Epoch()] = oracle.NumEdges()
		record(oracle.Epoch())
	}

	// Live store: runners race the updater.
	live, err := algorithms.NewBFSStore(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})

	const runners = 4
	for r := 0; r < runners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws := graphmat.NewWorkspace[uint32, uint32](int(n), graphmat.Bitvector)
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				snap := live.Acquire()
				epoch := snap.Epoch()
				g := freshState(snap) // private run state over shared structure
				edgesBefore := g.NumEdges()
				dist, _, err := algorithms.RunBFS(context.Background(), g, root, algorithms.WithThreads(2), algorithms.WithWorkspace(ws))
				if err != nil {
					errc <- err
					snap.Release()
					return
				}
				switch {
				case snap.Epoch() != epoch:
					errc <- fmt.Errorf("runner %d: snapshot epoch moved %d -> %d mid-run", r, epoch, snap.Epoch())
				case g.NumEdges() != edgesBefore:
					errc <- fmt.Errorf("runner %d: edge count moved %d -> %d mid-run", r, edgesBefore, g.NumEdges())
				case g.NumEdges() != wantEdges[epoch]:
					errc <- fmt.Errorf("runner %d: epoch %d has %d edges, oracle says %d", r, epoch, g.NumEdges(), wantEdges[epoch])
				default:
					want := wantDist[epoch]
					for v := range want {
						if dist[v] != want[v] {
							errc <- fmt.Errorf("runner %d: epoch %d dist[%d] = %d, oracle %d (mixed-epoch read)", r, epoch, v, dist[v], want[v])
							break
						}
					}
				}
				snap.Release()
			}
		}(r)
	}

	// Updater: same trajectory as the oracle, including the mid-way forced
	// compaction; automatic compaction may trigger too (same on both
	// stores, since ApplyEdges is deterministic).
	for i, b := range batches {
		if _, err := live.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
		if i == rounds/2 {
			live.Compact()
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if live.Epoch() != uint64(rounds) {
		t.Fatalf("live store epoch = %d, want %d", live.Epoch(), rounds)
	}
	if st := live.Stats(); st.Pinned != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if live.Stats().Compactions == 0 {
		t.Fatal("no compaction ran during the race window")
	}
}
