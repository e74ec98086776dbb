package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"graphmat/internal/sparse"
)

// The store's ground truth: a snapshot with applied batches must be
// indistinguishable — live triples in both directions, degrees, edge count,
// per-column push probes — from a Graph freshly built from the equivalent
// edge set. These tests assert that equivalence structurally; the engine-
// and algorithm-level differentials assert it through results.

// testAdj builds a deterministic scale-free-ish adjacency.
func testAdj(n uint32, seed uint64) *sparse.COO[float32] {
	c := sparse.NewCOO[float32](n, n)
	x := seed
	rnd := func(m uint32) uint32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return uint32(x % uint64(m))
	}
	for i := 0; i < int(n)*6; i++ {
		src, dst := rnd(n), rnd(n)
		if rnd(4) == 0 {
			src = rnd(n / 8) // hub bias
		}
		c.Add(src, dst, float32(rnd(100))+1)
	}
	return c
}

// liveTriples walks a layered direction and returns its live entries.
func liveTriples(layers []sparse.Layered[float32]) map[[2]uint32]float32 {
	out := map[[2]uint32]float32{}
	for _, l := range layers {
		l.Columns(func(col uint32, rows []uint32, vals []float32) {
			for i, row := range rows {
				out[[2]uint32{row, col}] = vals[i]
			}
		})
	}
	return out
}

// probeColumn finds column col of l the way the push walk does: through the
// delta's column index first (an override is authoritative, possibly
// empty), the base's otherwise.
func probeColumn(l sparse.Layered[float32], col uint32) ([]uint32, []float32) {
	for _, m := range []*sparse.DCSC[float32]{l.Delta, l.Base} {
		if m == nil {
			continue
		}
		if ci, ok := m.FindColumn(col); ok {
			s, e := m.CP[ci], m.CP[ci+1]
			return m.IR[s:e], m.Val[s:e]
		}
	}
	return nil, nil
}

// sameGraph asserts got's live structure equals a fresh build (want) in every
// observable: triples of both directions, degrees, edge count, and push-probe
// visibility of every live column.
func sameGraph(t *testing.T, what string, got, want *Graph[float32]) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: vertices %d vs %d", what, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: edges %d vs %d", what, got.NumEdges(), want.NumEdges())
	}
	for _, dir := range []string{"out", "in"} {
		var gl, wl []sparse.Layered[float32]
		if dir == "out" {
			gl, wl = got.OutLayers(), want.OutLayers()
		} else {
			gl, wl = got.InLayers(), want.InLayers()
		}
		gt, wt := liveTriples(gl), liveTriples(wl)
		if len(gt) != len(wt) {
			t.Fatalf("%s %s: %d live triples vs %d", what, dir, len(gt), len(wt))
		}
		for k, v := range wt {
			if gt[k] != v {
				t.Fatalf("%s %s: triple %v = %v, want %v", what, dir, k, gt[k], v)
			}
		}
		// Every live column must be findable through the overlay the way the
		// push kernel probes it (delta-first, by column index), with identical
		// content.
		cols := map[uint32]bool{}
		for k := range wt {
			cols[k[1]] = true
		}
		for _, l := range gl {
			for col := range cols {
				rows, vals := probeColumn(l, col)
				wantRows := map[uint32]float32{}
				for k, v := range wt {
					if k[1] == col && k[0] >= l.Base.RowLo && k[0] < l.Base.RowHi {
						wantRows[k[0]] = v
					}
				}
				if len(rows) != len(wantRows) {
					t.Fatalf("%s %s: column %d probe sees %d rows, want %d", what, dir, col, len(rows), len(wantRows))
				}
				for i, r := range rows {
					if wantRows[r] != vals[i] {
						t.Fatalf("%s %s: column %d row %d = %v, want %v", what, dir, col, r, vals[i], wantRows[r])
					}
				}
			}
		}
	}
	for v := uint32(0); v < got.NumVertices(); v++ {
		if got.OutDegree(v) != want.OutDegree(v) {
			t.Fatalf("%s: out-degree[%d] = %d, want %d", what, v, got.OutDegree(v), want.OutDegree(v))
		}
		if got.InDegree(v) != want.InDegree(v) {
			t.Fatalf("%s: in-degree[%d] = %d, want %d", what, v, got.InDegree(v), want.InDegree(v))
		}
	}
}

// equivalentAdj applies batches to raw triples by brute force and returns the
// fresh-build input.
func equivalentAdj(adj *sparse.COO[float32], batches [][]Update[float32]) *sparse.COO[float32] {
	live := map[[2]uint32]float32{}
	var order [][2]uint32
	norm := adj.Clone()
	NormalizeAdjacency(norm, 1)
	for _, t := range norm.Entries {
		k := [2]uint32{t.Row, t.Col}
		live[k] = t.Val
		order = append(order, k)
	}
	for _, b := range batches {
		for _, u := range b {
			k := [2]uint32{u.Src, u.Dst}
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
	out := sparse.NewCOO[float32](adj.NRows, adj.NCols)
	for _, k := range order {
		if v, ok := live[k]; ok {
			out.Add(k[0], k[1], v)
			delete(live, k)
		}
	}
	return out
}

func storeBatches(n uint32) [][]Update[float32] {
	return [][]Update[float32]{
		{ // inserts incl. a brand-new column, plus upserts
			{Src: 1, Dst: n - 2, Val: 7},
			{Src: n - 1, Dst: 0, Val: 8},
			{Src: 2, Dst: 3, Val: 9},
			{Src: 2, Dst: 3, Val: 10}, // same-batch overwrite: last wins
		},
		{ // deletes incl. no-ops, plus an insert of a previously deleted edge
			{Src: 2, Dst: 3, Del: true},
			{Src: 0, Dst: 1, Del: true},
			{Src: n - 3, Dst: n - 3, Val: 4}, // self-loop
			{Src: 5, Dst: 6, Del: true},
			{Src: 5, Dst: 6, Val: 11},
		},
		{ // heavier mixed batch
			{Src: 7, Dst: 8, Val: 1}, {Src: 8, Dst: 7, Val: 2},
			{Src: 1, Dst: n - 2, Del: true},
			{Src: 3, Dst: 3, Del: true},
			{Src: 9, Dst: 1, Val: 3}, {Src: 9, Dst: 2, Val: 3}, {Src: 9, Dst: 3, Val: 3},
		},
	}
}

func TestStoreApplyMatchesFreshBuild(t *testing.T) {
	const n = 320
	adj := testAdj(n, 99)
	for _, workers := range []int{1, 4} {
		opts := Options{Partitions: 7, Directions: Both, Workers: workers, CompactFraction: -1}
		st, err := NewStore(adj.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		batches := storeBatches(n)
		for i, b := range batches {
			res, err := st.ApplyEdges(b)
			if err != nil {
				t.Fatal(err)
			}
			if res.Epoch != uint64(i+1) {
				t.Fatalf("batch %d: epoch %d", i, res.Epoch)
			}
			want, err := NewFromCOO(equivalentAdj(adj, batches[:i+1]), opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := st.Acquire()
			sameGraph(t, fmt.Sprintf("workers=%d batch=%d", workers, i), snap.Graph(), want)
			snap.Release()
		}
		if st.Stats().Compactions != 0 {
			t.Fatalf("auto-compaction ran with CompactFraction=-1")
		}
		// Explicit compaction: same epoch, same structure, overlay gone.
		preEpoch := st.Epoch()
		st.Compact()
		if st.Epoch() != preEpoch {
			t.Fatalf("compaction changed the epoch: %d -> %d", preEpoch, st.Epoch())
		}
		snap := st.Acquire()
		if snap.Graph().OverlayNNZ() != 0 || snap.Graph().pendingUpdates != 0 {
			t.Fatalf("overlay survived compaction: %d nnz, %d pending",
				snap.Graph().OverlayNNZ(), snap.Graph().pendingUpdates)
		}
		want, err := NewFromCOO(equivalentAdj(adj, batches), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fmt.Sprintf("workers=%d compacted", workers), snap.Graph(), want)
		snap.Release()
	}
}

// TestStoreAutoCompaction drives enough churn through a small graph to cross
// the compaction fraction and checks the fold preserved the edge set.
func TestStoreAutoCompaction(t *testing.T) {
	const n = 128
	adj := testAdj(n, 5)
	st, err := NewStore(adj.Clone(), Options{Partitions: 4, CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]Update[float32]
	x := uint64(17)
	for i := 0; i < 12; i++ {
		var b []Update[float32]
		for j := 0; j < 40; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			src, dst := uint32(x>>33)%n, uint32(x>>13)%n
			b = append(b, Update[float32]{Src: src, Dst: dst, Val: float32(i*40 + j), Del: x%3 == 0})
		}
		batches = append(batches, b)
		if _, err := st.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Compactions == 0 {
		t.Fatalf("no compaction after 12 churn batches at fraction 0.1: %+v", st.Stats())
	}
	want, err := NewFromCOO(equivalentAdj(adj, batches), Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Acquire()
	defer snap.Release()
	sameGraph(t, "auto-compacted", snap.Graph(), want)
	if st.Epoch() != 12 {
		t.Fatalf("epoch = %d, want 12", st.Epoch())
	}
}

// TestStoreSnapshotImmutability pins a snapshot, applies updates, and checks
// the pinned epoch still reads the old edge set while the store serves the
// new one.
func TestStoreSnapshotImmutability(t *testing.T) {
	adj := testAdj(100, 3)
	st, err := NewStore(adj.Clone(), Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	old := st.Acquire()
	oldEdges := old.Graph().NumEdges()
	oldTriples := liveTriples(old.Graph().OutLayers())

	if _, err := st.ApplyEdges([]Update[float32]{{Src: 1, Dst: 99, Val: 5}, {Src: 0, Dst: 2, Del: true}}); err != nil {
		t.Fatal(err)
	}
	st.Compact()

	if old.Epoch() != 0 || old.Graph().NumEdges() != oldEdges {
		t.Fatalf("pinned snapshot drifted: epoch %d edges %d (was %d)", old.Epoch(), old.Graph().NumEdges(), oldEdges)
	}
	now := liveTriples(old.Graph().OutLayers())
	if len(now) != len(oldTriples) {
		t.Fatalf("pinned snapshot triple count drifted: %d vs %d", len(now), len(oldTriples))
	}
	if st.Epoch() != 1 {
		t.Fatalf("store epoch = %d", st.Epoch())
	}
	if st.Stats().Pinned != 1 {
		t.Fatalf("store pinned = %d while the old snapshot is held", st.Stats().Pinned)
	}
	old.Release()
	if st.Stats().Pinned != 0 {
		t.Fatalf("store pinned = %d after release", st.Stats().Pinned)
	}
}

// TestStoreRejectsOutOfRange checks whole-batch rejection and that nothing
// was published.
func TestStoreRejectsOutOfRange(t *testing.T) {
	st, err := NewStore(testAdj(32, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.ApplyEdges([]Update[float32]{{Src: 0, Dst: 1, Val: 1}, {Src: 32, Dst: 0, Val: 1}})
	if err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if st.Epoch() != 0 {
		t.Fatalf("failed batch advanced the epoch to %d", st.Epoch())
	}
}

// TestHasEdgeThroughOverlay covers the live edge set across base, delta
// and tombstoned columns, read through the materialized adjacency.
func TestHasEdgeThroughOverlay(t *testing.T) {
	adj := sparse.NewCOO[float32](16, 16)
	adj.Add(1, 2, 10)
	adj.Add(3, 4, 11)
	st, err := NewStore(adj, Options{Partitions: 2, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyEdges([]Update[float32]{
		{Src: 3, Dst: 4, Del: true},
		{Src: 5, Dst: 6, Val: 12},
		{Src: 1, Dst: 2, Val: 13},
	}); err != nil {
		t.Fatal(err)
	}
	snap := st.Acquire()
	defer snap.Release()
	live := snap.Graph().Adjacency()
	if v, ok := LookupEdge(live, 1, 2); !ok || v != 13 {
		t.Errorf("edge (1,2) = %v,%v want 13,true", v, ok)
	}
	if _, ok := LookupEdge(live, 3, 4); ok {
		t.Errorf("deleted edge (3,4) still live")
	}
	if v, ok := LookupEdge(live, 5, 6); !ok || v != 12 {
		t.Errorf("edge (5,6) = %v,%v want 12,true", v, ok)
	}
	if _, ok := LookupEdge(live, 2, 1); ok {
		t.Errorf("phantom edge (2,1)")
	}
}

// TestApplyToAdjacencyAndLookup covers the master-copy helpers the serving
// layer uses to keep its raw edge set in step with instance stores.
func TestApplyToAdjacencyAndLookup(t *testing.T) {
	adj := testAdj(64, 7)
	NormalizeAdjacency(adj, 0)
	batch := []Update[float32]{
		{Src: 0, Dst: 63, Val: 9},
		{Src: 1, Dst: 1, Del: true},
		{Src: 0, Dst: 63, Val: 10}, // overwrite within batch
	}
	next, err := ApplyToAdjacency(adj, batch)
	if err != nil {
		t.Fatal(err)
	}
	want := equivalentAdj(adj, [][]Update[float32]{batch})
	NormalizeAdjacency(want, 1)
	if len(next.Entries) != len(want.Entries) {
		t.Fatalf("applied adjacency has %d entries, want %d", len(next.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if next.Entries[i] != want.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, next.Entries[i], want.Entries[i])
		}
	}
	if v, ok := LookupEdge(next, 0, 63); !ok || v != 10 {
		t.Errorf("LookupEdge(0,63) = %v,%v", v, ok)
	}
	if _, ok := LookupEdge(next, 1, 1); ok {
		t.Errorf("LookupEdge found deleted (1,1)")
	}
	if _, err := ApplyToAdjacency(adj, []Update[float32]{{Src: 64, Dst: 0}}); err == nil {
		t.Errorf("out-of-range master update accepted")
	}
}

// TestParseUpdates covers both wire formats and the sniffing entry point.
func TestParseUpdates(t *testing.T) {
	nd := "{\"src\":1,\"dst\":2,\"weight\":1.5}\n\n{\"src\":3,\"dst\":4,\"del\":true}\n{\"src\":5,\"dst\":6}\n"
	ups, err := ParseUpdates([]byte(nd))
	if err != nil {
		t.Fatal(err)
	}
	want := []Update[float32]{{1, 2, 1.5, false}, {3, 4, 1, true}, {5, 6, 1, false}}
	if len(ups) != len(want) {
		t.Fatalf("ndjson: %d updates", len(ups))
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Fatalf("ndjson[%d] = %+v, want %+v", i, ups[i], want[i])
		}
	}
	txt := "# comment\nadd 1 2 1.5\ndel 3 4\n5 6\n"
	ups2, err := ParseUpdates([]byte(txt))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups2) != len(want) {
		t.Fatalf("text: %d updates", len(ups2))
	}
	for i := range want {
		if ups2[i] != want[i] {
			t.Fatalf("text[%d] = %+v, want %+v", i, ups2[i], want[i])
		}
	}
	if _, err := ParseUpdates([]byte("{\"src\":1,\"bogus\":2}\n")); err == nil {
		t.Error("unknown NDJSON field accepted")
	}
	if _, err := ParseUpdates([]byte("add 1\n")); err == nil {
		t.Error("short text line accepted")
	}
	// One object per NDJSON line: trailing bytes used to be dropped silently,
	// acknowledging updates that were never applied.
	for _, bad := range []string{
		"{\"src\":1,\"dst\":2}\n{\"src\":1,\"dst\":2} junk\n",
		"{\"src\":1,\"dst\":2}\n{\"src\":3,\"dst\":4}{\"src\":5,\"dst\":6}\n",
		"{\"src\":1,\"dst\":2}\n{\"src\":3,\"dst\":4} \t]",
	} {
		_, err := ParseUpdates([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ParseUpdates(%q) = %v, want a line-2 error", bad, err)
		}
	}
	if _, err := ParseUpdates([]byte("{\"src\":1,\"dst\":2} \t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for _, bad := range []string{"add 1 2 NaN\n", "1 2 +Inf\n"} {
		if _, err := ParseUpdates([]byte(bad)); err == nil {
			t.Errorf("ParseUpdates(%q) accepted a non-finite weight", bad)
		}
	}
	// Round trip.
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	back, err := ParseUpdates(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ups) {
		t.Fatalf("round trip: %d vs %d", len(back), len(ups))
	}
	for i := range ups {
		if back[i] != ups[i] {
			t.Fatalf("round trip[%d] = %+v, want %+v", i, back[i], ups[i])
		}
	}
}
