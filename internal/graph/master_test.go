package graph

import (
	"math/rand"
	"testing"

	"graphmat/internal/sparse"
)

// masterTestBase builds a normalized random adjacency over n vertices.
func masterTestBase(rng *rand.Rand, n uint32, edges int) *sparse.COO[float32] {
	adj := sparse.NewCOO[float32](n, n)
	for i := 0; i < edges; i++ {
		adj.Add(uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n))), float32(1+rng.Intn(9)))
	}
	NormalizeAdjacency(adj, 1)
	return adj
}

// masterTestBatch draws a batch mixing every case the master distinguishes:
// upserts of new and existing edges, deletes of live, already-deleted and
// never-existing edges, self-loops, and keys repeated inside the batch (which
// also repeat across batches, the key space being small).
func masterTestBatch(rng *rand.Rand, ref *sparse.COO[float32], n uint32, size int) []Update[float32] {
	batch := make([]Update[float32], 0, size)
	for len(batch) < size {
		u := Update[float32]{Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n))), Val: float32(10 + rng.Intn(90))}
		switch rng.Intn(8) {
		case 0: // self-loop
			u.Dst = u.Src
		case 1, 2: // an edge that is live right now
			if len(ref.Entries) > 0 {
				t := ref.Entries[rng.Intn(len(ref.Entries))]
				u.Src, u.Dst = t.Row, t.Col
			}
		case 3: // repeat a key of this batch
			if len(batch) > 0 {
				p := batch[rng.Intn(len(batch))]
				u.Src, u.Dst = p.Src, p.Dst
			}
		}
		u.Del = rng.Intn(5) < 2
		batch = append(batch, u)
	}
	return batch
}

// checkMasterAgainst compares a master with the reference adjacency the
// ApplyToAdjacency chain produced: entry-for-entry materialization, edge
// count, and Lookup on the batch's keys, on reference edges and on random
// (mostly absent) keys.
func checkMasterAgainst(t *testing.T, rng *rand.Rand, m *Master[float32], ref *sparse.COO[float32], batch []Update[float32], epoch int) {
	t.Helper()
	got := m.Materialize()
	if got.NRows != ref.NRows || got.NCols != ref.NCols || len(got.Entries) != len(ref.Entries) {
		t.Fatalf("epoch %d: materialized %dx%d with %d entries, want %dx%d with %d",
			epoch, got.NRows, got.NCols, len(got.Entries), ref.NRows, ref.NCols, len(ref.Entries))
	}
	for i, e := range ref.Entries {
		if got.Entries[i] != e {
			t.Fatalf("epoch %d: entry %d = %+v, want %+v", epoch, i, got.Entries[i], e)
		}
	}
	if m.NumEdges() != len(ref.Entries) {
		t.Fatalf("epoch %d: NumEdges = %d, want %d", epoch, m.NumEdges(), len(ref.Entries))
	}
	if st := m.Stats(); st.LiveEdges != len(ref.Entries) {
		t.Fatalf("epoch %d: Stats().LiveEdges = %d, want %d", epoch, st.LiveEdges, len(ref.Entries))
	}
	lookup := func(src, dst uint32) {
		t.Helper()
		gv, gok := m.Lookup(src, dst)
		wv, wok := LookupEdge(ref, src, dst)
		if gok != wok || gv != wv {
			t.Fatalf("epoch %d: Lookup(%d,%d) = %v,%v, want %v,%v", epoch, src, dst, gv, gok, wv, wok)
		}
	}
	for _, u := range batch {
		lookup(u.Src, u.Dst)
		lookup(u.Dst, u.Src)
	}
	for i := 0; i < 64; i++ {
		if len(ref.Entries) > 0 {
			e := ref.Entries[rng.Intn(len(ref.Entries))]
			lookup(e.Row, e.Col)
		}
		lookup(uint32(rng.Intn(int(ref.NRows))), uint32(rng.Intn(int(ref.NCols))))
	}
}

// TestMasterMatchesApplyToAdjacencyChain is the master's differential: seeded
// random batches through Master.Apply against the ApplyToAdjacency chain, at
// every epoch. The base is small enough that the overlay crosses the fold
// threshold several times, and explicit folds (the checkpoint's) are mixed in.
func TestMasterMatchesApplyToAdjacencyChain(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const n = 48
		ref := masterTestBase(rng, n, 400)
		m := NewMaster(ref.Clone())
		checkMasterAgainst(t, rng, m, ref, nil, 0)
		for epoch := 1; epoch <= 60; epoch++ {
			batch := masterTestBatch(rng, ref, n, 1+rng.Intn(40))
			var err error
			if ref, err = ApplyToAdjacency(ref, batch); err != nil {
				t.Fatal(err)
			}
			if err := m.Apply(batch); err != nil {
				t.Fatal(err)
			}
			checkMasterAgainst(t, rng, m, ref, batch, epoch)
			if epoch%17 == 0 {
				before := m.Stats().Folds
				folded := m.Fold()
				if st := m.Stats(); st.OverlayKeys != 0 || st.BaseEdges != len(ref.Entries) || len(folded.Entries) != len(ref.Entries) {
					t.Fatalf("epoch %d: after Fold stats = %+v, want an empty overlay over %d edges", epoch, st, len(ref.Entries))
				}
				if m.Fold(); m.Stats().Folds > before+1 {
					t.Fatalf("epoch %d: folding an empty overlay counted as a fold", epoch)
				}
				checkMasterAgainst(t, rng, m, ref, batch, epoch)
			}
		}
		if st := m.Stats(); st.Folds < 3 {
			t.Errorf("seed %d: only %d folds; the run was meant to cross the fold threshold repeatedly", seed, st.Folds)
		}
	}
}

// TestMasterRejectsOutOfRange checks that a bad batch changes nothing.
func TestMasterRejectsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := masterTestBase(rng, 16, 40)
	m := NewMaster(ref.Clone())
	bad := []Update[float32]{{Src: 1, Dst: 2, Val: 7}, {Src: 16, Dst: 0, Val: 1}}
	if err := m.Check(bad); err == nil {
		t.Fatal("Check accepted an out-of-range vertex")
	}
	if err := m.Apply(bad); err == nil {
		t.Fatal("Apply accepted an out-of-range vertex")
	}
	if st := m.Stats(); st.OverlayKeys != 0 || st.LiveEdges != len(ref.Entries) {
		t.Fatalf("rejected batch left stats %+v", st)
	}
	checkMasterAgainst(t, rng, m, ref, bad[:1], 0)
}

// TestMasterNoOpDeletesStayOut checks that deleting edges that never existed
// does not grow the overlay (they have nothing to mask).
func TestMasterNoOpDeletesStayOut(t *testing.T) {
	adj := sparse.NewCOO[float32](8, 8)
	adj.Add(0, 1, 1)
	adj.Add(2, 3, 1)
	adj.Add(4, 5, 1)
	adj.Add(6, 7, 1)
	adj.Add(1, 0, 1)
	adj.Add(3, 2, 1)
	adj.Add(5, 4, 1)
	adj.Add(7, 6, 1)
	NormalizeAdjacency(adj, 1)
	m := NewMaster(adj)
	if err := m.Apply([]Update[float32]{{Src: 0, Dst: 2, Del: true}, {Src: 7, Dst: 7, Del: true}}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.OverlayKeys != 0 || st.LiveEdges != 8 {
		t.Fatalf("no-op deletes left stats %+v", st)
	}
	// Insert then delete: the tombstone must stay (a later lookup must not
	// fall through to a base that lacks the key — harmless — but the count
	// must return to 8 exactly once).
	if err := m.Apply([]Update[float32]{{Src: 0, Dst: 2, Val: 5}, {Src: 0, Dst: 2, Del: true}, {Src: 0, Dst: 2, Del: true}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(0, 2); ok || m.NumEdges() != 8 {
		t.Fatalf("insert+delete+delete left the edge live=%v with %d edges", ok, m.NumEdges())
	}
}
