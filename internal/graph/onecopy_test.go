package graph

import (
	"fmt"
	"runtime"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// The partitions (base + delta) are the graph's only copy of its edges, so
// everything that needs them as triples goes through Graph.triples. These
// tests hold that materializer to the sequential ApplyToAdjacency chain —
// the same oracle the master copy is held to — and guard the memory the
// deleted copies used to take.

// sameLiveSet asserts g's observable edge set — Adjacency, edge count and
// degrees — equals the normalized adjacency ref.
func sameLiveSet(t *testing.T, what string, g *Graph[float32], ref *sparse.COO[float32]) {
	t.Helper()
	sameCOO(t, what+" adjacency", ref, g.Adjacency(), true)
	if g.NumEdges() != int64(len(ref.Entries)) {
		t.Fatalf("%s: NumEdges = %d, want %d", what, g.NumEdges(), len(ref.Entries))
	}
	sameDegrees(t, what+" outdeg", g.OutDegrees(), ref.RowCounts())
	sameDegrees(t, what+" indeg", g.InDegrees(), ref.ColCounts())
}

// materializerBatches cuts a gen.Updates stream (inserts, upserts, deletes of
// real edges, same-key churn) into uneven batches and adds the shapes the
// stream only hits by luck: every out-edge of one vertex and every in-edge of
// another deleted at once (a tombstoned column in each direction's overlay),
// and one key written three times in a batch.
func materializerBatches(base *sparse.COO[float32]) [][]Update[float32] {
	ops := gen.Updates(base, gen.UpdateOptions{Count: 900, DeleteFraction: 0.35, MaxWeight: 40, Seed: 23})
	var batches [][]Update[float32]
	for size := 1; len(ops) > 0; size = size*3 + 1 {
		n := min(size, len(ops))
		b := make([]Update[float32], n)
		for i, op := range ops[:n] {
			b[i] = Update[float32]{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
		}
		batches = append(batches, b)
		ops = ops[n:]
	}
	hubSrc, hubDst := base.Entries[0].Row, base.Entries[len(base.Entries)/2].Col
	var tomb []Update[float32]
	for _, e := range base.Entries {
		if e.Row == hubSrc || e.Col == hubDst {
			tomb = append(tomb, Update[float32]{Src: e.Row, Dst: e.Col, Del: true})
		}
	}
	repeat := []Update[float32]{
		{Src: 3, Dst: 5, Val: 1}, {Src: 3, Dst: 5, Del: true}, {Src: 3, Dst: 5, Val: 2.5},
		{Src: hubSrc, Dst: hubDst, Val: 9},
	}
	return append(batches, tomb, repeat, nil)
}

// TestTriplesMatchesAdjacencyChain is the materializer's differential: after
// every batch, for stores built Out, In and Both, the overlay-carrying graph
// and its compaction both read back exactly the ApplyToAdjacency chain, and
// the compaction's partitions are array for array a fresh build's.
func TestTriplesMatchesAdjacencyChain(t *testing.T) {
	base := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 5, MaxWeight: 30})
	NormalizeAdjacency(base, 1)
	batches := materializerBatches(base)
	for _, dirs := range []Direction{Out, In, Both} {
		opts := Options{Partitions: 5, Directions: dirs, CompactFraction: -1}
		st, err := NewStore(base.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := base
		for i, b := range batches {
			what := fmt.Sprintf("directions=%d batch=%d", dirs, i)
			if _, err := st.ApplyEdges(b); err != nil {
				t.Fatal(err)
			}
			if ref, err = ApplyToAdjacency(ref, b); err != nil {
				t.Fatal(err)
			}
			snap := st.Acquire()
			g := snap.Graph()
			sameLiveSet(t, what+" overlay", g, ref)

			// compacted does not touch the store, so the overlay keeps
			// growing across the whole stream.
			cg := g.compacted()
			sameLiveSet(t, what+" compacted", cg, ref)
			fresh, err := NewFromCOO(ref.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			sameDCSCs(t, what+" compacted out", cg.outParts, fresh.outParts)
			sameDCSCs(t, what+" compacted in", cg.inParts, fresh.inParts)

			snap.Release()
		}
		st.Compact()
		snap := st.Acquire()
		sameLiveSet(t, fmt.Sprintf("directions=%d after Compact", dirs), snap.Graph(), ref)
		if ss := st.Stats(); ss.PendingUpdates != 0 || ss.OverlayNNZ != 0 || ss.BaseEdges != ss.LiveEdges {
			t.Fatalf("after Compact: %+v", ss)
		}
		snap.Release()
	}
}

// oneCopyAdj is the fixed graph the size guards measure: RMAT scale 16,
// edge factor 16 (~0.9 M distinct edges).
func oneCopyAdj() *sparse.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1})
}

// TestBuiltGraphHoldsOneCopyOfEdges guards the graph's footprint: a built
// store retains its partition arrays (10.6 B/edge here), degrees and vertex
// state — at most 14 bytes per edge, where a retained triple list made it 24
// and a build's scatter fragments pinned by the worker pool 35. No pool job
// runs between the build and the measurement, so the guard also depends on
// the pool dropping a finished job (sched.TestPoolReleasesFinishedJob).
func TestBuiltGraphHoldsOneCopyOfEdges(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	// Workers > 1 so the build goes through the shared pool even on one CPU.
	st, err := NewStore(oneCopyAdj(), Options{Partitions: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	retained := float64(heap()-before) / float64(st.NumEdges())
	t.Logf("%d edges, %.1f B/edge retained", st.NumEdges(), retained)
	if retained > 14 {
		t.Errorf("a built store retains %.1f B/edge, want <= 14: something besides the partitions holds the edges", retained)
	}
	runtime.KeepAlive(st)
}

// TestApplyResultMatchesAdjacencyChain checks the counts a batch reports,
// which the merge of one direction decides as it finds each update's entry,
// for stores built Out, In and Both: against the live set before the batch,
// a key's last write is an insert, an update, a delete or a no-op.
func TestApplyResultMatchesAdjacencyChain(t *testing.T) {
	base := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 5, MaxWeight: 30})
	NormalizeAdjacency(base, 1)
	batches := materializerBatches(base)
	for _, dirs := range []Direction{Out, In, Both} {
		st, err := NewStore(base.Clone(), Options{Partitions: 5, Directions: dirs, CompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		ref := base
		for i, b := range batches {
			last := map[[2]uint32]Update[float32]{}
			for _, u := range b {
				last[[2]uint32{u.Src, u.Dst}] = u
			}
			var want ApplyResult
			for _, u := range last {
				_, present := LookupEdge(ref, u.Src, u.Dst)
				switch {
				case u.Del && present:
					want.Deleted++
				case u.Del:
					want.NoOps++
				case present:
					want.Updated++
				default:
					want.Inserted++
				}
			}
			got, err := st.ApplyEdges(b)
			if err != nil {
				t.Fatal(err)
			}
			want.Epoch, want.Compacted = got.Epoch, got.Compacted
			if got != want {
				t.Fatalf("directions=%d batch=%d: result %+v, want %+v", dirs, i, got, want)
			}
			if ref, err = ApplyToAdjacency(ref, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}
