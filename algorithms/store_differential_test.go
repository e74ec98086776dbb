package algorithms

import (
	"context"
	"fmt"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// The registry-level differential for the versioned store — the ISSUE's
// acceptance bar: for EVERY registered algorithm × {Pull, Push, Auto},
// results on a snapshot with applied insert+delete batches must be
// bit-identical to a fresh Build of the equivalent raw edge set. This goes
// through each algorithm's own update translation (directed, symmetrized,
// upper-triangle), so symmetrization corner cases — deleting one direction
// of a mutually linked pair, inserting where only the reversal existed —
// are exercised where they bite.

// updateBatches returns raw batches hitting the translation corner cases on
// the scale-10 RMAT golden (n = 1024).
func updateBatches(n uint32) [][]EdgeUpdate {
	return [][]EdgeUpdate{
		{
			{Src: 0, Dst: n - 1, Val: 2},
			{Src: n - 1, Dst: 0, Val: 3}, // mutual pair, distinct weights
			{Src: 5, Dst: 5, Val: 1},     // self-loop: dropped everywhere
			{Src: 17, Dst: 900, Val: 4},  // fresh edge into a quiet region
			{Src: 1, Dst: 2, Val: 9},     // likely upsert of a hub edge
		},
		{
			{Src: 0, Dst: n - 1, Del: true}, // delete one direction of the pair
			{Src: 17, Dst: 900, Del: true},  // delete a just-inserted edge
			{Src: 800, Dst: 801, Val: 5},
			{Src: 801, Dst: 800, Del: true}, // delete where only reversal exists
			{Src: 3, Dst: 700, Val: 6},
			{Src: 3, Dst: 700, Del: true},
			{Src: 3, Dst: 700, Val: 7}, // churn within one batch: last wins
		},
	}
}

// applyRawBrute computes the equivalent raw edge set after batches.
func applyRawBrute(adj *graphmat.COO[float32], batches [][]EdgeUpdate) *graphmat.COO[float32] {
	type key struct{ s, d uint32 }
	norm := adj.Clone()
	graphmat.NormalizeAdjacency(norm, 1)
	live := map[key]float32{}
	var order []key
	for _, t := range norm.Entries {
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
	out := graphmat.NewCOO[float32](adj.NRows)
	for _, k := range order {
		if v, ok := live[k]; ok {
			out.Add(k.s, k.d, v)
			delete(live, k)
		}
	}
	return out
}

// sameAnswer holds got's values, series and count to ref's, bit for bit.
func sameAnswer(t *testing.T, what string, ref, got Result) {
	t.Helper()
	sameSeries(t, what+" values", ref.Values, got.Values)
	if len(ref.Series) != len(got.Series) {
		t.Fatalf("%s: series sets differ", what)
	}
	for name := range ref.Series {
		sameSeries(t, what+" series "+name, ref.Series[name], got.Series[name])
	}
	if (ref.Count == nil) != (got.Count == nil) || (ref.Count != nil && *got.Count != *ref.Count) {
		t.Fatalf("%s: count %v vs %v", what, got.Count, ref.Count)
	}
}

// sameResult is sameAnswer plus equal engine work: for two runs that must
// take the same traversal on every superstep — the same mode over the same
// layers, whoever holds them.
func sameResult(t *testing.T, what string, ref, got Result) {
	t.Helper()
	sameAnswer(t, what, ref, got)
	if got.Stats.Iterations != ref.Stats.Iterations ||
		got.Stats.MessagesSent != ref.Stats.MessagesSent ||
		got.Stats.EdgesProcessed != ref.Stats.EdgesProcessed {
		t.Fatalf("%s: stats diverge: %+v vs %+v", what, got.Stats, ref.Stats)
	}
}

// sameAcrossLayouts compares an overlay run with the fresh build's in the
// same mode. Their answers are equal; so is their work, unless the program
// declares FirstMessageFinal: the row walk reads a layer's base only, so a
// partition with pending updates keeps the column walk where the fresh
// build's gathers, and the two runs are each held to their own layout's
// forced-push run instead (sameTallies).
func sameAcrossLayouts(t *testing.T, what, algo string, fresh, updated, freshPush, updatedPush Result) {
	t.Helper()
	if !declaresFirstMessageFinal(t, algo) {
		sameResult(t, what, fresh, updated)
		return
	}
	sameAnswer(t, what, fresh, updated)
	sameTallies(t, what+", fresh build vs its push run", algo, freshPush.Stats, fresh.Stats)
	sameTallies(t, what+", overlay vs its push run", algo, updatedPush.Stats, updated.Stats)
}

func TestStoreDifferentialAllAlgorithmsAllModes(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	n := baseAdj.NRows
	batches := updateBatches(n)

	// The post-batch raw master every lookup consults — exactly what the
	// serving layer maintains.
	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	var err error
	for _, b := range batches {
		if master, err = graphmat.ApplyToAdjacency(master, b); err != nil {
			t.Fatal(err)
		}
	}
	lookup := NewRawEdgeLookup(master)
	equivalent := applyRawBrute(baseAdj, batches)

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
	for _, algo := range Names() {
		p, ok := params[algo]
		if !ok {
			t.Fatalf("registered algorithm %q missing from the differential matrix", algo)
		}
		t.Run(algo, func(t *testing.T) {
			spec, _ := Lookup(algo)
			updated, err := spec.Build(baseAdj.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				res, err := updated.ApplyUpdates(b, lookup)
				if err != nil {
					t.Fatal(err)
				}
				if res.Epoch != uint64(i+1) {
					t.Fatalf("batch %d produced epoch %d", i, res.Epoch)
				}
			}
			fresh, err := spec.Build(equivalent.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			if updated.NumEdges() != fresh.NumEdges() {
				t.Fatalf("edge counts diverge: updated %d vs fresh %d", updated.NumEdges(), fresh.NumEdges())
			}
			// Push first: forced push folds every frontier edge whatever the
			// layout, so the two push runs agree on every tally and are what
			// sameAcrossLayouts holds the other modes' work to.
			var refPush, gotPush Result
			for _, mode := range []graphmat.Mode{graphmat.Push, graphmat.Pull, graphmat.Auto} {
				pm := p
				pm.Mode = mode
				refRes, err := fresh.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := updated.Run(pm, nil)
				if err != nil {
					t.Fatal(err)
				}
				if gotRes.Epoch != uint64(len(batches)) {
					t.Errorf("mode %s: run epoch %d, want %d", mode, gotRes.Epoch, len(batches))
				}
				if mode == graphmat.Push {
					refPush, gotPush = refRes, gotRes
					sameResult(t, algo+" mode push", refRes, gotRes)
					continue
				}
				sameAcrossLayouts(t, algo+" mode "+mode.String(), algo, refRes, gotRes, refPush, gotPush)
			}
		})
	}
}

// TestAllActiveDifferential is the regime the pull walk's flat fold serves:
// every vertex active, so every stored column carries a message and whole
// column batches are folded as edge ranges. PageRank (the fused sum sink),
// PPR from one source (the same sink, most vertices sending zeros) and
// components (the generic sink; all-active on its first superstep only) must
// give the boxed oracle's bits under Pull, Push and Auto, at one and three
// workers, on a plain graph and on a store snapshot with a pending overlay —
// where overrides and tombstones split the flat runs. 16 partitions keep the
// three-worker pull tasks whole, so the plain PageRank run is flat edge for
// edge.
func TestAllActiveDifferential(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	t.Run("pagerank", func(t *testing.T) { allActiveDifferential(t, pagerankAlgo, adj, Params{Iterations: 3}, true) })
	t.Run("ppr", func(t *testing.T) {
		allActiveDifferential(t, pprAlgo, adj, Params{Sources: []uint32{3}, Iterations: 3}, true)
	})
	t.Run("components", func(t *testing.T) { allActiveDifferential(t, ccAlgo, adj, Params{}, false) })
}

// allActiveDifferential runs row a on adj, plain and with updateBatches
// pending in a store's overlay. allFlat: every superstep is all-active, so a
// plain-graph pull run must fold every edge flat.
func allActiveDifferential[V any](t *testing.T, a *algo[V], adj *graphmat.COO[float32], p Params, allFlat bool) {
	const parts = 16
	ctx := context.Background()
	plain, err := a.newGraph(adj.Clone(), parts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := a.newStore(adj.Clone(), parts)
	if err != nil {
		t.Fatal(err)
	}
	master := adj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	for _, b := range updateBatches(adj.NRows) {
		if master, err = graphmat.ApplyToAdjacency(master, b); err != nil {
			t.Fatal(err)
		}
		prop, err := translateUpdates(a.kind, b, NewRawEdgeLookup(master))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.ApplyEdges(prop); err != nil {
			t.Fatal(err)
		}
	}
	if st := store.Stats(); st.OverlayNNZ == 0 {
		t.Fatalf("fixture: the batches left no pending overlay: %+v", st)
	}
	snap := store.Acquire()
	defer snap.Release()

	for world, g := range map[string]*graphmat.Graph[V, float32]{"plain": plain, "overlay": snap.Graph()} {
		for _, threads := range []int{1, 3} {
			run := func(cfg graphmat.Config) Result {
				cfg.Threads = threads
				res, err := a.run(ctx, g, p, func(s *settings) { s.cfg, s.iters = cfg, p.Iterations })
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			oracle := run(graphmat.Config{Dispatch: graphmat.Boxed})
			if oracle.Stats.FlatEdges != 0 {
				t.Errorf("%s threads %d: the boxed oracle folded %d edges flat", world, threads, oracle.Stats.FlatEdges)
			}
			for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto} {
				got := run(graphmat.Config{Mode: mode})
				what := fmt.Sprintf("%s %s threads %d mode %s", a.name, world, threads, mode)
				sameResult(t, what, oracle, got)
				flat, edges := got.Stats.FlatEdges, got.Stats.EdgesProcessed
				switch {
				case mode == graphmat.Push && flat != 0:
					t.Errorf("%s: a push run folded %d edges flat", what, flat)
				case mode == graphmat.Pull && flat == 0:
					t.Errorf("%s: an all-active pull run never took the flat fold", what)
				case mode == graphmat.Pull && allFlat && world == "plain" && flat != edges:
					t.Errorf("%s: FlatEdges = %d, EdgesProcessed = %d", what, flat, edges)
				case flat > edges:
					t.Errorf("%s: FlatEdges = %d exceeds EdgesProcessed = %d", what, flat, edges)
				}
			}
		}
	}
}

// TestStoreBatchOverOverlay is the k-wide gather's fallback: the row walk
// reads a layer's base only, so a batch over a snapshot whose every layer
// carries pending updates keeps the column walk on all of them — RowSupersteps
// 0 where the fresh build of the same edge set gathers — and answers the same,
// column for column, with the same frontier tallies.
func TestStoreBatchOverOverlay(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	n := baseAdj.NRows
	// One upsert into every 32nd row and column: every 64-aligned partition,
	// of either scatter direction, takes a delta.
	var touch []EdgeUpdate
	for v := uint32(0); v+1 < n; v += 32 {
		touch = append(touch, EdgeUpdate{Src: v, Dst: v + 1, Val: 2}, EdgeUpdate{Src: v + 1, Dst: v, Val: 3})
	}
	batches := append(updateBatches(n), touch)
	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	var err error
	for _, b := range batches {
		if master, err = graphmat.ApplyToAdjacency(master, b); err != nil {
			t.Fatal(err)
		}
	}
	lookup := NewRawEdgeLookup(master)
	equivalent := applyRawBrute(baseAdj, batches)

	for _, algo := range []string{"bfs", "reachability", "sssp"} {
		t.Run(algo, func(t *testing.T) {
			spec, _ := Lookup(algo)
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
				t.Fatalf("fixture: the updates compacted the overlay away: %+v", st)
			}
			fresh, err := spec.Build(equivalent.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []graphmat.Mode{graphmat.Pull, graphmat.Auto} {
				p := Params{Sources: []uint32{0, 1, 3, 17, 900}, Mode: mode, Threads: 2}
				want, err := fresh.RunBatch(context.Background(), nil, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := updated.RunBatch(context.Background(), nil, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s mode %s", algo, mode)
				for i, src := range p.Sources {
					sameSeries(t, fmt.Sprintf("%s source %d, overlay vs fresh build", what, src), want.Values[i], got.Values[i])
				}
				sameTallies(t, what+", fresh build vs overlay", algo, got.Stats, want.Stats)
				if rows := got.Stats.RowSupersteps; rows != 0 {
					t.Errorf("%s: %d row-walk supersteps over layers that all carry a delta", what, rows)
				}
				if rows := want.Stats.RowSupersteps; (rows > 0) != declaresFirstMessageFinal(t, algo) {
					t.Errorf("%s: the fresh build's batch ran %d row-walk supersteps", what, rows)
				}
			}
		})
	}
}

// TestStoreDifferentialAfterCompaction re-checks one symmetrized and one
// directed algorithm after forcing heavy churn through the compaction path:
// the folded base must serve the same results as the overlay did.
func TestStoreDifferentialAfterCompaction(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 6, Seed: 7, MaxWeight: 5})
	n := baseAdj.NRows

	var batches [][]EdgeUpdate
	x := uint64(42)
	for i := 0; i < 8; i++ {
		var b []EdgeUpdate
		for j := 0; j < 200; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			b = append(b, EdgeUpdate{
				Src: uint32(x>>33) % n, Dst: uint32(x>>13) % n,
				Val: float32(i + 1), Del: x%4 == 0,
			})
		}
		batches = append(batches, b)
	}
	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	equivalent := applyRawBrute(baseAdj, batches)

	for _, algo := range []string{"bfs", "pagerank"} {
		spec, _ := Lookup(algo)
		updated, err := spec.Build(baseAdj.Clone(), 5)
		if err != nil {
			t.Fatal(err)
		}
		m := master
		for _, b := range batches {
			if m, err = graphmat.ApplyToAdjacency(m, b); err != nil {
				t.Fatal(err)
			}
			if _, err := updated.ApplyUpdates(b, NewRawEdgeLookup(m)); err != nil {
				t.Fatal(err)
			}
		}
		if updated.StoreStats().Compactions == 0 {
			t.Fatalf("%s: churn did not trigger compaction: %+v", algo, updated.StoreStats())
		}
		fresh, err := spec.Build(equivalent.Clone(), 5)
		if err != nil {
			t.Fatal(err)
		}
		run := func(inst Instance, mode graphmat.Mode) Result {
			res, err := inst.Run(Params{Iterations: 10, Mode: mode}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sameAcrossLayouts(t, algo+" post-compaction", algo, run(fresh, graphmat.Auto), run(updated, graphmat.Auto), run(fresh, graphmat.Push), run(updated, graphmat.Push))
	}
}

// TestTranslateSymmetrizedValues pins the value-precedence rule: the
// original raw direction beats the replicated reversal, matching
// Symmetrize's keep-first semantics bit for bit.
func TestTranslateSymmetrizedValues(t *testing.T) {
	adj := graphmat.NewCOO[float32](8)
	adj.Add(1, 2, 10) // only forward raw edge
	graphmat.NormalizeAdjacency(adj, 1)

	// Delete (1,2) after inserting (2,1): property (1,2) must survive with
	// weight from the reversal.
	batch := []EdgeUpdate{{Src: 2, Dst: 1, Val: 20}, {Src: 1, Dst: 2, Del: true}}
	master, err := graphmat.ApplyToAdjacency(adj, batch)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := translateUpdates(updSymmetric, batch, NewRawEdgeLookup(master))
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]uint32]EdgeUpdate{
		{2, 1}: {Src: 2, Dst: 1, Val: 20},
		{1, 2}: {Src: 1, Dst: 2, Val: 20}, // reversal value, not deleted
	}
	for _, u := range prop {
		w, ok := want[[2]uint32{u.Src, u.Dst}]
		if !ok {
			continue
		}
		if u != w {
			t.Errorf("translated %+v, want %+v", u, w)
		}
		delete(want, [2]uint32{u.Src, u.Dst})
	}
	if len(want) != 0 {
		t.Errorf("missing translations: %v (got %v)", want, prop)
	}
	if _, err := translateUpdates(updSymmetric, batch, nil); err == nil {
		t.Error("symmetrized translation without a lookup accepted")
	}
	// Upper-triangle: the pair collapses onto (1,2) and stays live.
	tri, err := translateUpdates(updUpperTriangle, batch, NewRawEdgeLookup(master))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range tri {
		if u.Src > u.Dst {
			t.Errorf("upper-triangle translation emitted %+v", u)
		}
		if u.Src == 1 && u.Dst == 2 && (u.Del || u.Val != 20) {
			t.Errorf("upper-triangle (1,2) = %+v", u)
		}
	}
}
