package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// genBatch draws one update batch against the CURRENT reference edge set, so
// deletes hit live edges (and, across epochs, edges earlier batches inserted
// or re-deleted); gen.Updates adds self-loops and same-key churn.
func genBatch(ref *sparse.COO[float32], count int, seed uint64) []algorithms.EdgeUpdate {
	ops := gen.Updates(ref, gen.UpdateOptions{Count: count, DeleteFraction: 0.35, MaxWeight: 50, Seed: seed})
	batch := make([]algorithms.EdgeUpdate, len(ops))
	for i, op := range ops {
		batch[i] = algorithms.EdgeUpdate{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
	}
	// A delete of an edge that (almost surely) never existed: a no-op the
	// master must neither count nor store.
	return append(batch, algorithms.EdgeUpdate{Src: ref.NRows - 1, Dst: uint32(seed) % ref.NCols, Del: true})
}

// checkEntryMaster compares an entry's master with the reference adjacency
// the graphmat.ApplyToAdjacency chain produced.
func checkEntryMaster(t *testing.T, what string, entry *GraphEntry, ref *sparse.COO[float32], batch []algorithms.EdgeUpdate) {
	t.Helper()
	got := entry.master.Materialize()
	if len(got.Entries) != len(ref.Entries) {
		t.Fatalf("%s: master holds %d edges, want %d", what, len(got.Entries), len(ref.Entries))
	}
	for i, e := range ref.Entries {
		if got.Entries[i] != e {
			t.Fatalf("%s: master entry %d = %+v, want %+v", what, i, got.Entries[i], e)
		}
	}
	if entry.NumEdges() != len(ref.Entries) {
		t.Fatalf("%s: NumEdges = %d, want %d", what, entry.NumEdges(), len(ref.Entries))
	}
	for _, u := range batch {
		for _, k := range [][2]uint32{{u.Src, u.Dst}, {u.Dst, u.Src}, {u.Src, (u.Dst + 1) % ref.NCols}} {
			gv, gok := entry.master.Lookup(k[0], k[1])
			wv, wok := graphmat.LookupEdge(ref, k[0], k[1])
			if gok != wok || gv != wv {
				t.Fatalf("%s: Lookup(%d,%d) = %v,%v, want %v,%v", what, k[0], k[1], gv, gok, wv, wok)
			}
		}
	}
}

// sameAsFresh checks that the entry answers bfs, sssp and pagerank exactly
// like an entry freshly registered from the reference edge set.
func sameAsFresh(t *testing.T, what string, entry *GraphEntry, ref *sparse.COO[float32]) {
	t.Helper()
	fresh, err := NewRegistry(0, 1, "").AddCOO("fresh", "ref", ref.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for algo, p := range map[string]algorithms.Params{
		"bfs":      {Source: 3},
		"sssp":     {Source: 3},
		"pagerank": {Iterations: 6},
	} {
		want, err := fresh.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := entry.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, what+": "+algo, want.Values, got.Values)
	}
}

// TestEntryMasterDifferentialAndReplay drives the log-structured master
// through the serving entry against the ApplyToAdjacency chain, epoch by
// epoch, then through the boot path: the entry is abandoned un-checkpointed
// (as a SIGKILL would leave it) and reopened from its data directory twice —
// once with every batch still in the WAL, so replay itself crosses the fold
// threshold, and once after checkpoints folded the master.
func TestEntryMasterDifferentialAndReplay(t *testing.T) {
	dir := t.TempDir()
	ref := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 6, Seed: 77, MaxWeight: 9})
	graphmat.NormalizeAdjacency(ref, 1)
	entry, err := NewRegistry(0, 1, dir).AddCOO("g", "seed", ref.Clone())
	if err != nil {
		t.Fatal(err)
	}
	epoch := uint64(0)
	refs := []*sparse.COO[float32]{ref} // reference edge set by epoch
	apply := func(e *GraphEntry, what string, n, size int) {
		t.Helper()
		for i := 0; i < n; i++ {
			epoch++
			batch := genBatch(ref, size, epoch)
			var err error
			if ref, err = graphmat.ApplyToAdjacency(ref, batch); err != nil {
				t.Fatal(err)
			}
			got, _, err := e.ApplyEdges(batch)
			if err != nil || got != epoch {
				t.Fatalf("%s: ApplyEdges = epoch %d, %v; want epoch %d", what, got, err, epoch)
			}
			refs = append(refs, ref)
			checkEntryMaster(t, what, e, ref, batch)
		}
	}

	// Phase 1: no instance built, so no compaction and no checkpoint — the
	// master's own threshold is the only thing that folds.
	apply(entry, "no instances", 12, 40)
	if st, ps := entry.MasterStats(), entry.PersistStats(); st.Folds == 0 || ps.Checkpoints != 1 {
		t.Fatalf("phase 1: master %+v, persist %+v; want threshold folds and only the registration checkpoint", st, ps)
	}

	// Crash and reboot: all 12 batches replay into the master's overlay.
	entry, err = NewRegistry(0, 1, dir).Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); ps.Boot != "snapshot+wal" || ps.ReplayedBatches != 12 {
		t.Fatalf("first reboot: %+v, want 12 replayed batches", ps)
	}
	if entry.Epoch() != epoch {
		t.Fatalf("first reboot at epoch %d, want %d", entry.Epoch(), epoch)
	}
	if st := entry.MasterStats(); st.Folds == 0 {
		t.Errorf("first reboot: replay of 12 batches never folded: %+v", st)
	}
	checkEntryMaster(t, "first reboot", entry, ref, nil)

	// Phase 2: built instances compact, compactions checkpoint, checkpoints
	// fold the master. Small batches, so several land between checkpoints.
	for _, algo := range []string{"bfs", "pagerank"} {
		if _, err := entry.Run(algo, algorithms.Params{Source: 3, Iterations: 6}); err != nil {
			t.Fatal(err)
		}
	}
	apply(entry, "with instances", 30, 5)
	ps := entry.PersistStats()
	if ps.Checkpoints == 0 || ps.CheckpointErrors != 0 {
		t.Fatalf("phase 2: %+v, want compaction-driven checkpoints", ps)
	}
	if ps.WALBatches == 0 {
		t.Fatalf("phase 2 ended exactly on a checkpoint (%+v); pick another batch count so the second reboot replays something", ps)
	}
	sameAsFresh(t, "before second reboot", entry, ref)

	// The checkpointed master file must be byte-for-byte the image of the
	// chain's adjacency at the checkpoint's tag: folding changes how the
	// master gets there, not what is written.
	entry.pers.mu.Lock()
	tag, masterFile := entry.pers.man.Tag, entry.pers.man.Files[compMaster]
	entry.pers.mu.Unlock()
	wantFile := filepath.Join(t.TempDir(), "want.snap")
	if err := snap.Write(wantFile, masterImage(refs[tag], tag)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "g", masterFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("master snapshot at tag %d differs from the image of the ApplyToAdjacency chain at that epoch", tag)
	}

	entry2, err := NewRegistry(0, 1, dir).Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps2 := entry2.PersistStats(); ps2.Boot != "snapshot+wal" || ps2.ReplayedBatches != ps.WALBatches {
		t.Fatalf("second reboot: %+v, want %d replayed batches", ps2, ps.WALBatches)
	}
	if entry2.Epoch() != epoch {
		t.Fatalf("second reboot at epoch %d, want %d", entry2.Epoch(), epoch)
	}
	checkEntryMaster(t, "second reboot", entry2, ref, nil)
	sameAsFresh(t, "second reboot", entry2, ref)
}

// TestLazyBuildRacesWriter builds instances lazily — each materializing the
// master — while a writer applies batches. Run under -race this checks the
// master's locking; in any mode, every instance (whichever batches its build
// saw, the rest arriving by fan-out) must end up answering like a fresh
// registration of the final edge set.
func TestLazyBuildRacesWriter(t *testing.T) {
	ref := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 5, MaxWeight: 9})
	graphmat.NormalizeAdjacency(ref, 1)
	entry, err := NewRegistry(0, 1, t.TempDir()).AddCOO("g", "seed", ref.Clone())
	if err != nil {
		t.Fatal(err)
	}
	const nBatches = 30
	batches := make([][]algorithms.EdgeUpdate, nBatches)
	for i := range batches {
		batches[i] = genBatch(ref, 60, uint64(i+1))
		if ref, err = graphmat.ApplyToAdjacency(ref, batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if _, _, err := entry.ApplyEdges(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, algo := range []string{"bfs", "sssp", "pagerank"} {
		if _, err := entry.Run(algo, algorithms.Params{Source: 3, Iterations: 6}); err != nil {
			t.Error(err)
		}
		_ = entry.NumEdges()
		_ = entry.MasterStats()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkEntryMaster(t, "after the race", entry, ref, batches[nBatches-1])
	sameAsFresh(t, "after the race", entry, ref)
}

// TestUpdateEdgesStatusCodes separates the client's faults from the server's
// on POST /edges: a batch the validation rejects is a 400; a batch the WAL
// cannot take is a 500, and leaves the graph where it was.
func TestUpdateEdgesStatusCodes(t *testing.T) {
	srv := New(Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")
	entry := srv.reg.graphs["g"]
	edges := entry.NumEdges()

	if code, body := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges", "add 0 999999\n"); code != http.StatusBadRequest {
		t.Errorf("out-of-range vertex = %d: %s", code, body)
	}
	if code, body := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges", "{\"src\":1,\"dst\":2} junk\n"); code != http.StatusBadRequest {
		t.Errorf("garbled NDJSON = %d: %s", code, body)
	}

	// Break the WAL underneath the entry: appends now fail.
	entry.pers.mu.Lock()
	if err := entry.pers.wal.Close(); err != nil {
		t.Fatal(err)
	}
	entry.pers.mu.Unlock()
	if code, body := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges", "add 0 63 2\n"); code != http.StatusInternalServerError {
		t.Errorf("WAL append failure = %d, want 500: %s", code, body)
	}
	if entry.Epoch() != 0 || entry.NumEdges() != edges || entry.MasterStats().OverlayKeys != 0 {
		t.Errorf("rejected batches moved the graph: epoch %d, %d edges (was %d), master %+v",
			entry.Epoch(), entry.NumEdges(), edges, entry.MasterStats())
	}
}

// TestJSONBodyStatusCodes: the three routes that take a JSON document accept
// exactly one of at most maxJSONBody bytes, and both run endpoints bound
// timeout_ms to what a time.Duration can hold — through the one function
// they share, so each case is posed to both spellings of the query.
func TestJSONBodyStatusCodes(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")
	pad := strings.Repeat(" ", maxJSONBody)
	sources := `{"algo":"bfs","sources":[` + strings.Repeat("1,", maxJSONBody/2) + `1]}`
	const run, bfs, graphs = "/v1/graphs/g/run", "/v1/graphs/g/run/bfs", "/v1/graphs"
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"one document", run, `{"algo":"bfs"}`, http.StatusOK},
		{"trailing whitespace", run, "{\"algo\":\"bfs\"} \n\t\r\n", http.StatusOK},
		{"trailing garbage", run, `{"algo":"bfs"}garbage`, http.StatusBadRequest},
		{"second document", run, `{"algo":"bfs"}{"algo":"sssp"}`, http.StatusBadRequest},
		{"oversized sources list", run, sources, http.StatusRequestEntityTooLarge},
		{"garbage past the cap", run, `{"algo":"bfs"}` + pad + "x", http.StatusRequestEntityTooLarge},
		{"alias: empty body", bfs, "", http.StatusOK},
		{"alias: one document", bfs, `{"source":3}`, http.StatusOK},
		{"alias: trailing garbage", bfs, `{"source":3}garbage`, http.StatusBadRequest},
		{"alias: oversized", bfs, `{"source":3}` + pad + "x", http.StatusRequestEntityTooLarge},
		{"add graph: trailing garbage", graphs, `{"name":"h","generator":"grid","width":4,"height":4}x`, http.StatusBadRequest},
		{"add graph: oversized", graphs, `{"name":"h","generator":"grid","width":4,"height":4}` + pad + "x", http.StatusRequestEntityTooLarge},
		{"add graph: one document", graphs, `{"name":"h","generator":"grid","width":4,"height":4}`, http.StatusCreated},

		{"timeout at the bound", run, fmt.Sprintf(`{"algo":"bfs","timeout_ms":%d}`, maxTimeoutMS), http.StatusOK},
		{"timeout past the bound", run, fmt.Sprintf(`{"algo":"bfs","timeout_ms":%d}`, maxTimeoutMS+1), http.StatusBadRequest},
		{"timeout MaxInt64", run, fmt.Sprintf(`{"algo":"bfs","timeout_ms":%d}`, int64(math.MaxInt64)), http.StatusBadRequest},
		{"alias: timeout at the bound", fmt.Sprintf("%s?timeout_ms=%d", bfs, maxTimeoutMS), "", http.StatusOK},
		{"alias: timeout past the bound", fmt.Sprintf("%s?timeout_ms=%d", bfs, maxTimeoutMS+1), "", http.StatusBadRequest},
		{"alias: timeout zero", bfs + "?timeout_ms=0", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := doRaw(t, ts, http.MethodPost, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s = %d, want %d: %.200s", tc.name, code, tc.want, body)
		}
		if code == http.StatusBadRequest && strings.Contains(tc.name, "timeout") && !bytes.Contains(body, []byte("invalid timeout_ms")) {
			t.Errorf("%s: error %s does not name timeout_ms", tc.name, body)
		}
	}
}

// TestAckAllocationIsIndependentOfGraphSize is the O(batch) guard on the
// acknowledgement path, without a clock: the bytes allocated per acknowledged
// batch (no instances built, so the master is all there is) must not grow
// with |E|. The copy-per-batch master allocated 12 bytes per edge per batch —
// 8x more at scale 15 than at scale 12.
func TestAckAllocationIsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const nBatches, batchSize = 8, 500
	perBatch := func(scale int) float64 {
		adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
		entry, err := NewRegistry(0, 1, "").AddCOO("g", "rmat", adj)
		if err != nil {
			t.Fatal(err)
		}
		base := entry.master.Fold()
		batches := make([][]algorithms.EdgeUpdate, nBatches)
		for i := range batches {
			batches[i] = genBatch(base, batchSize, uint64(i+1))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, b := range batches {
			if _, _, err := entry.ApplyEdges(b); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if st := entry.MasterStats(); st.Folds != 0 {
			t.Fatalf("scale %d: %d folds during the measured batches; the guard must measure fold-free acknowledgements", scale, st.Folds)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / nBatches
	}
	small, large := perBatch(12), perBatch(15)
	t.Logf("allocated per %d-update batch: %.0f B at scale 12, %.0f B at scale 15", batchSize, small, large)
	if large > 2*small {
		t.Errorf("acknowledging a batch allocates %.0f B at scale 15 but %.0f B at scale 12: the ack path grows with |E|", large, small)
	}
}
