package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphmat/internal/sparse"
)

// A model test of one Store shared by several algorithms, beside the raw
// Master it is fed from — the serving layer's shape: one writer applies each
// batch to the master and then to the store (under the entry's update lock),
// while goroutines standing for the algorithms bound to the store pin, hold,
// check and release snapshots in random interleavings and compact it at
// random. The model is the sequential ApplyToAdjacency chain over the same
// batches: every pinned snapshot's edge set must be the chain's adjacency at
// the snapshot's epoch for as long as the pin is held, every materialized
// master must be the chain at some epoch the writer had reached, and every
// pin must be released.

// modelBatches returns deterministic raw batches over n vertices: inserts,
// re-weights and deletes of keys that may or may not exist, with repeats.
func modelBatches(n uint32, rounds, size int, rng *rand.Rand) [][]Update[float32] {
	out := make([][]Update[float32], rounds)
	for r := range out {
		for range size {
			u := Update[float32]{Src: rng.Uint32N(n), Dst: rng.Uint32N(n), Val: float32(rng.IntN(9) + 1)}
			u.Del = rng.IntN(3) == 0
			out[r] = append(out[r], u)
		}
	}
	return out
}

// sameEdgeSet reports how adj differs from want, entry by entry (values by
// bits), or nil.
func sameEdgeSet(adj, want *sparse.COO[float32]) error {
	if adj.NRows != want.NRows || adj.NCols != want.NCols || len(adj.Entries) != len(want.Entries) {
		return fmt.Errorf("%dx%d with %d edges, want %dx%d with %d", adj.NRows, adj.NCols, len(adj.Entries), want.NRows, want.NCols, len(want.Entries))
	}
	for i, e := range adj.Entries {
		w := want.Entries[i]
		if e.Row != w.Row || e.Col != w.Col || math.Float32bits(e.Val) != math.Float32bits(w.Val) {
			return fmt.Errorf("entry %d = %v, want %v", i, e, w)
		}
	}
	return nil
}

func TestStoreSharedModel(t *testing.T) {
	n, rounds, size := uint32(96), 48, 24
	if raceEnabled || testing.Short() {
		n, rounds = 48, 16
	}
	rng := rand.New(rand.NewPCG(42, 7))
	adj := testAdj(n, 0x5eed)
	NormalizeAdjacency(adj, 1)
	batches := modelBatches(n, rounds, size, rng)

	chain := []*sparse.COO[float32]{adj.Clone()}
	for _, b := range batches {
		next, err := ApplyToAdjacency(chain[len(chain)-1], b)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}

	master := NewMaster(adj.Clone())
	store, err := NewStore(adj.Clone(), Options{Partitions: 4, Directions: Both})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg          sync.WaitGroup
		done        atomic.Bool
		steps       atomic.Int64  // algorithm operations so far, both goroutines
		masterEpoch atomic.Uint64 // batches the master has taken
		errMu       sync.Mutex
		errs        []error
	)
	fail := func(format string, args ...any) {
		errMu.Lock()
		errs = append(errs, fmt.Errorf(format, args...))
		errMu.Unlock()
	}
	check := func(who string, sn *Snapshot[float32]) {
		e := sn.Epoch()
		if e >= uint64(len(chain)) {
			fail("%s: snapshot epoch %d beyond the %d batches applied", who, e, len(batches))
			return
		}
		if err := sameEdgeSet(sn.Graph().Adjacency(), chain[e]); err != nil {
			fail("%s: snapshot at epoch %d: %v", who, e, err)
		}
	}

	// The algorithms bound to the store.
	for a, name := range []string{"algo-a", "algo-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(a), 99))
			var held []*Snapshot[float32]
			for !done.Load() {
				steps.Add(1)
				switch op := rng.IntN(10); {
				case op < 4 && len(held) < 4:
					sn := store.Acquire()
					check(name+" acquire", sn)
					held = append(held, sn)
				case op < 7 && len(held) > 0:
					at := rng.IntN(len(held))
					check(name+" release", held[at])
					held[at].Release()
					held = append(held[:at], held[at+1:]...)
				case op < 8:
					store.Compact()
				default:
					lo := masterEpoch.Load()
					m := master.Materialize()
					hi := masterEpoch.Load()
					// The writer applies a batch to the master before it
					// stores the new epoch, so the master may already hold
					// batch hi+1 when both loads read hi.
					last := min(hi+1, uint64(rounds))
					matched := false
					for e := lo; e <= last && !matched; e++ {
						matched = sameEdgeSet(m, chain[e]) == nil
					}
					if !matched {
						fail("%s: materialized master matches no epoch in [%d, %d]", name, lo, last)
					}
				}
			}
			for _, sn := range held {
				check(name+" drain", sn)
				sn.Release()
			}
		}()
	}

	// The writer: master first, then the shared store, one batch at a time,
	// each once the algorithms have taken a few more steps, so every batch
	// lands among pins of several earlier epochs.
	const stepsPerBatch = 12
	for i, b := range batches {
		for steps.Load() < int64(i*stepsPerBatch) {
			runtime.Gosched()
		}
		if err := master.Apply(b); err != nil {
			t.Fatal(err)
		}
		masterEpoch.Store(uint64(i + 1))
		if _, err := store.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
		if rng.IntN(6) == 0 {
			master.Fold()
		}
	}
	done.Store(true)
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}

	if got := store.Epoch(); got != uint64(rounds) {
		t.Fatalf("store epoch = %d, want %d", got, rounds)
	}
	st := store.Stats()
	if st.Pinned != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatal("no compaction ran: the model did not reach the compacted layout")
	}
	final := store.Acquire()
	defer final.Release()
	if err := sameEdgeSet(final.Graph().Adjacency(), chain[rounds]); err != nil {
		t.Fatalf("final store: %v", err)
	}
	if err := sameEdgeSet(master.Materialize(), chain[rounds]); err != nil {
		t.Fatalf("final master: %v", err)
	}
}
