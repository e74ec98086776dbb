package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmat/algorithms"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// persistTestAdj builds a small connected graph with some weight variety.
func persistTestAdj(n uint32) *sparse.COO[float32] {
	adj := sparse.NewCOO[float32](n, n)
	for i := uint32(0); i < n; i++ {
		adj.Add(i, (i+1)%n, float32(i%5)+1)
		adj.Add(i, (i*7+3)%n, float32(i%3)+0.5)
	}
	return adj
}

func persistTestBatches() [][]algorithms.EdgeUpdate {
	return [][]algorithms.EdgeUpdate{
		{
			{Src: 0, Dst: 31, Val: 2},
			{Src: 31, Dst: 0, Val: 3},
			{Src: 5, Dst: 40, Val: 4},
		},
		{
			{Src: 0, Dst: 31, Del: true},
			{Src: 9, Dst: 10, Val: 8},
			{Src: 5, Dst: 40, Val: 5}, // upsert of the just-inserted edge
		},
	}
}

// mustParseSource is a Source whose path does not exist: registering it can
// only succeed through the mmap boot path, so tests passing it prove the
// restart never re-parsed.
func mustNotParseSource(dir string) Source {
	return Source{Path: filepath.Join(dir, "does-not-exist.mtx")}
}

func sameValues(t *testing.T, what string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(ref))
	}
	for v := range ref {
		if math.Float64bits(ref[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: value[%d] = %v, want %v", what, v, got[v], ref[v])
		}
	}
}

// TestPersistRestartRoundTrip is the registry-level persistence round trip:
// register, build instances, apply batches, then boot a second registry from
// the same data directory (with a source that cannot be parsed, proving the
// mmap path) and check epoch, counters and bit-identical query results.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); !ps.Enabled || ps.Boot != "created" || ps.Checkpoints != 1 {
		t.Fatalf("registration stats = %+v", ps)
	}

	// Two built instances (one symmetrized, one directed) so the restart has
	// instance snapshots to open.
	if _, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunContext(t.Context(), "pagerank", algorithms.Params{Iterations: 10}, nil); err != nil {
		t.Fatal(err)
	}
	for i, b := range persistTestBatches() {
		epoch, _, err := entry.ApplyEdges(b)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != uint64(i+1) {
			t.Fatalf("batch %d produced epoch %d", i, epoch)
		}
	}
	refBFS, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refPR, err := entry.RunContext(t.Context(), "pagerank", algorithms.Params{Iterations: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); ps.WALBatches != 2 || ps.WALRecords != 6 {
		t.Fatalf("WAL counters = %+v, want 2 batches / 6 records", ps)
	}

	// Restart: a new registry over the same directory.
	reg2 := NewRegistry(0, 1, dir)
	entry2, err := reg2.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	ps := entry2.PersistStats()
	if ps.Boot != "snapshot+wal" {
		t.Errorf("boot = %q, want snapshot+wal", ps.Boot)
	}
	if ps.ReplayedBatches != 2 || ps.ReplayedRecords != 6 {
		t.Errorf("replay counters = %+v, want 2 batches / 6 records", ps)
	}
	if entry2.Epoch() != entry.Epoch() || entry2.UpdatesApplied() != entry.UpdatesApplied() {
		t.Errorf("restart state = (epoch %d, updates %d), want (%d, %d)",
			entry2.Epoch(), entry2.UpdatesApplied(), entry.Epoch(), entry.UpdatesApplied())
	}
	if entry2.NumEdges() != entry.NumEdges() {
		t.Errorf("edge count = %d, want %d", entry2.NumEdges(), entry.NumEdges())
	}
	// Both instances must come back from their snapshots, not lazy rebuilds.
	if got := entry2.BuiltAlgorithms(); len(got) != 2 || got[0] != "bfs" || got[1] != "pagerank" {
		t.Errorf("built after boot = %v, want [bfs pagerank]", got)
	}

	gotBFS, err := entry2.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after restart", refBFS.Values, gotBFS.Values)
	gotPR, err := entry2.RunContext(t.Context(), "pagerank", algorithms.Params{Iterations: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "pagerank after restart", refPR.Values, gotPR.Values)

	// The restarted entry keeps accepting (and logging) updates.
	epoch, _, err := entry2.ApplyEdges([]algorithms.EdgeUpdate{{Src: 1, Dst: 50, Val: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Errorf("post-restart batch produced epoch %d, want 3", epoch)
	}
	if ps := entry2.PersistStats(); ps.WALBatches != 3 {
		t.Errorf("WAL batches after post-restart append = %d, want 3 (2 replayed + 1 new)", ps.WALBatches)
	}
}

// TestPersistTornSnapshotFallback damages the current generation's master
// snapshot and asserts boot falls back to the previous generation, replays
// both WALs without double-applying, heals with a fresh checkpoint, and
// serves bit-identical results.
func TestPersistTornSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	batches := persistTestBatches()
	if _, _, err := entry.ApplyEdges(batches[0]); err != nil {
		t.Fatal(err)
	}
	// Rotate the generation by hand so there is a current (tag 1) and a
	// previous (tag 0) to fall back to.
	entry.updMu.Lock()
	err = entry.pers.checkpoint(entry)
	entry.updMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// One more batch after the rotation: it lives only in the new WAL.
	if _, _, err := entry.ApplyEdges(batches[1]); err != nil {
		t.Fatal(err)
	}
	ref, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the current generation's master snapshot.
	gdir := filepath.Join(dir, "g")
	man, err := snap.ReadManifest(gdir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tag != 1 || man.Prev == nil || man.Prev.Tag != 0 {
		t.Fatalf("manifest generations = %d/%v, want 1 with prev 0", man.Tag, man.Prev)
	}
	masterPath := filepath.Join(gdir, man.Files["master"])
	data, err := os.ReadFile(masterPath)
	if err != nil {
		t.Fatal(err)
	}
	data[16] ^= 0xFF // header field guarded by the header CRC
	if err := os.WriteFile(masterPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry(0, 1, dir)
	entry2, err := reg2.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	ps := entry2.PersistStats()
	if ps.Boot != "fallback" {
		t.Errorf("boot = %q, want fallback", ps.Boot)
	}
	// Previous generation (tag 0) + both WALs: batch 1 from the old log,
	// batch 2 from the new one, each exactly once.
	if ps.ReplayedBatches != 2 {
		t.Errorf("replayed %d batches, want 2 (one per WAL, no double-apply)", ps.ReplayedBatches)
	}
	if entry2.Epoch() != 2 {
		t.Errorf("epoch after fallback = %d, want 2", entry2.Epoch())
	}
	got, err := entry2.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after fallback", ref.Values, got.Values)
	// The heal checkpoint replaced the torn generation: a third boot takes
	// the fast path again.
	if ps.Checkpoints == 0 {
		t.Error("fallback boot did not heal with a fresh checkpoint")
	}
	reg3 := NewRegistry(0, 1, dir)
	entry3, err := reg3.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry3.PersistStats(); ps.Boot != "snapshot" {
		t.Errorf("boot after heal = %q, want snapshot", ps.Boot)
	}
	got3, err := entry3.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after heal", ref.Values, got3.Values)
}

// TestPersistCheckpointOnCompaction drives enough churn through a persistent
// entry to trigger store compaction and asserts the generation rotates on its
// own (the OnCompact → dirty → checkpoint chain) and that the WAL restarts
// empty afterwards.
func TestPersistCheckpointOnCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(48))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	before := entry.PersistStats().Checkpoints

	x := uint64(99)
	for i := 0; i < 12; i++ {
		var b []algorithms.EdgeUpdate
		for j := 0; j < 64; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			b = append(b, algorithms.EdgeUpdate{
				Src: uint32(x>>33) % 48, Dst: uint32(x>>13) % 48,
				Val: float32(i + 1), Del: x%4 == 0,
			})
		}
		if _, _, err := entry.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	ps := entry.PersistStats()
	if ps.Checkpoints <= before {
		t.Fatalf("churn did not rotate the generation: %+v (instance store: %+v)",
			ps, entry.Stats()["bfs"].Store)
	}
	if ps.CheckpointErrors != 0 {
		t.Errorf("checkpoint errors: %+v", ps)
	}
	// The current WAL holds only batches accepted after the last rotation.
	if ps.WALBatches >= 12 {
		t.Errorf("WAL not rotated: %d batches still held", ps.WALBatches)
	}
	if ps.Tag == 0 {
		t.Errorf("generation tag still 0 after %d batches", 12)
	}

	// And the rotated state must boot clean.
	reg2 := NewRegistry(0, 1, dir)
	entry2, err := reg2.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if entry2.Epoch() != 12 {
		t.Errorf("epoch after reboot = %d, want 12", entry2.Epoch())
	}
	ref, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := entry2.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after compaction reboot", ref.Values, got.Values)
}

// TestPersistStatsSurface asserts /v1/stats carries the persist block only
// for persistent graphs.
func TestPersistStatsSurface(t *testing.T) {
	vol := NewRegistry(0, 1, "")
	entry, err := vol.AddCOO("g", "seed", persistTestAdj(16))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); ps.Enabled {
		t.Errorf("volatile entry reports persistence: %+v", ps)
	}
	var zero PersistStats
	if entry.PersistStats() != zero {
		t.Errorf("volatile entry stats = %+v, want zero value", entry.PersistStats())
	}

	graphmatDir := t.TempDir()
	per := NewRegistry(0, 1, graphmatDir)
	pentry, err := per.AddCOO("g", "seed", persistTestAdj(16))
	if err != nil {
		t.Fatal(err)
	}
	ps := pentry.PersistStats()
	if !ps.Enabled || ps.Boot != "created" {
		t.Errorf("persistent entry stats = %+v", ps)
	}
}

// TestPersistBootsLegacyTripleSections boots a data directory whose instance
// snapshots are in the layout written before the partitions became a
// property graph's only copy of its edges — each file also carries the Gᵀ
// triples in a section of its own. The new reader does not look the section
// up: the boot is the same snapshot+wal boot, every acked batch replays, and
// the answers are bit-identical.
func TestPersistBootsLegacyTripleSections(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	// hits is built with both directions (its old files carried backward
	// triples too; whatever the section, it goes unread), bfs with one.
	params := algorithms.Params{Source: 0, Iterations: 5}
	for _, algo := range []string{"bfs", "hits"} {
		if _, err := entry.RunContext(t.Context(), algo, params, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range persistTestBatches() {
		if _, _, err := entry.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	ref := map[string]algorithms.Result{}
	for _, algo := range []string{"bfs", "hits"} {
		if ref[algo], err = entry.RunContext(t.Context(), algo, params, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Rewrite every instance file with its triples riding along.
	gdir := filepath.Join(dir, "g")
	man, err := snap.ReadManifest(gdir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for comp, file := range man.Files {
		if comp == compMaster {
			continue
		}
		path := filepath.Join(gdir, file)
		sf, err := snap.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		img := *sf.Image()
		g, err := graph.NewGraphFromImage(&img)
		if err != nil {
			t.Fatal(err)
		}
		fwd := g.Adjacency()
		fwd.Transpose() // Row = dst, Col = src, col-major: the old Fwd section
		img.Fwd = fwd.Entries
		before, _ := os.Stat(path)
		if err := snap.Write(path, &img); err != nil {
			t.Fatal(err)
		}
		sf.Close()
		if after, _ := os.Stat(path); after.Size() < before.Size()+12*int64(len(fwd.Entries)) {
			t.Fatalf("%s: rewrite did not add a triple section (%d -> %d bytes)", file, before.Size(), after.Size())
		}
		rewritten++
	}
	if rewritten != 2 {
		t.Fatalf("rewrote %d instance files, want 2", rewritten)
	}

	entry2, err := NewRegistry(0, 1, dir).Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry2.PersistStats(); ps.Boot != "snapshot+wal" || ps.ReplayedBatches != 2 || ps.ReplayedRecords != 6 {
		t.Errorf("legacy boot = %+v, want snapshot+wal replaying 2 batches / 6 records", ps)
	}
	if got := entry2.BuiltAlgorithms(); len(got) != 2 {
		t.Errorf("built after boot = %v, want both instances from their snapshots", got)
	}
	if entry2.Epoch() != entry.Epoch() || entry2.NumEdges() != entry.NumEdges() {
		t.Errorf("legacy boot state = (epoch %d, %d edges), want (%d, %d)",
			entry2.Epoch(), entry2.NumEdges(), entry.Epoch(), entry.NumEdges())
	}
	for algo, want := range ref {
		got, err := entry2.RunContext(t.Context(), algo, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, algo+" after legacy boot", want.Values, got.Values)
		for name, series := range want.Series {
			sameValues(t, algo+" "+name+" after legacy boot", series, got.Series[name])
		}
	}
}

// TestPersistBootsLegacyAuxSections boots testdata/legacy_aux, a data
// directory written by a build that serialized each partition's AUX bucket
// index: graph g over persistTestAdj(256), its master, a bfs instance
// snapshot carrying one aux section per partition, and a WAL holding
// persistTestBatches. The reader does not look those sections up — the
// column index is built on the heap by the first lookup — so the boot is
// the usual snapshot+wal boot, and every bfs reply is byte for byte that of
// a fresh build taking the same batches over its bfs instance, its timing
// and scheduler tallies aside.
func TestPersistBootsLegacyAuxSections(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy_aux"))); err != nil {
		t.Fatal(err)
	}
	sf, err := snap.Open(filepath.Join(dir, "g", instFileName("bfs", 0)))
	if err != nil {
		t.Fatal(err)
	}
	aux := 0
	for _, s := range sf.Info().Sections {
		if s.Kind == "aux" {
			aux++
		}
	}
	sf.Close()
	if aux == 0 {
		t.Fatal("the legacy instance file carries no aux section: the test is not testing the old layout")
	}

	legacy := New(Config{DataDir: dir})
	entry, err := legacy.reg.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); ps.Boot != "snapshot+wal" || ps.ReplayedBatches != 2 || ps.ReplayedRecords != 6 {
		t.Errorf("legacy boot = %+v, want snapshot+wal replaying 2 batches / 6 records", ps)
	}
	if got := entry.BuiltAlgorithms(); len(got) != 1 || got[0] != "bfs" {
		t.Errorf("built after boot = %v, want the bfs instance from its snapshot", got)
	}

	fresh := New(Config{})
	fentry, err := fresh.reg.AddCOO("g", "seed", persistTestAdj(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fentry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range persistTestBatches() {
		if _, _, err := fentry.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	lts, fts := httptest.NewServer(legacy), httptest.NewServer(fresh)
	t.Cleanup(lts.Close)
	t.Cleanup(fts.Close)
	// Run time and the scheduler's tallies (steals, busy time) vary run to
	// run; everything else in a reply is the answer.
	clock := regexp.MustCompile(`"duration_ms":[0-9.e+-]*|"Sched":\{[^}]*\}`)
	for _, src := range []int{0, 5, 31, 200} {
		body := map[string]any{"source": src}
		lcode, lbody := do(t, lts, http.MethodPost, "/v1/graphs/g/run/bfs", body)
		fcode, fbody := do(t, fts, http.MethodPost, "/v1/graphs/g/run/bfs", body)
		if lcode != http.StatusOK || fcode != http.StatusOK {
			t.Fatalf("bfs from %d = %d / %d: %s / %s", src, lcode, fcode, lbody, fbody)
		}
		if l, f := clock.ReplaceAll(lbody, nil), clock.ReplaceAll(fbody, nil); !bytes.Equal(l, f) {
			t.Errorf("bfs from %d after legacy boot:\n%s\nfresh build:\n%s", src, l, f)
		}
	}
}

// TestDeleteDurableGraphThenReRegister deletes a durable graph that has a
// store file and a logged batch, then registers a different graph under the
// same name: the new source must be parsed, not the deleted graph booted from
// its manifest, and the directory must hold only the new generation. A
// writer racing the delete stops at it, and a handle to the deleted entry
// kept across the delete may still run queries, but an update through it
// fails and nothing it does reaches the directory.
func TestDeleteDurableGraphThenReRegister(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	old, err := reg.Add("g", Source{Generator: "grid", Width: 8, Height: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	batch := []algorithms.EdgeUpdate{{Src: 0, Dst: 63, Val: 2}}
	if _, _, err := old.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	// The writer's last batch starts after Remove returned, if none failed
	// before.
	stop, writerDone := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				_, _, err := old.ApplyEdges(batch)
				writerDone <- err
				return
			default:
			}
			if _, _, err := old.ApplyEdges(batch); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	if err := reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-writerDone; !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("writer racing the delete stopped with %v, want ErrGraphNotFound", err)
	}

	src := Source{Generator: "grid", Width: 20, Height: 20, Seed: 1}
	entry, err := reg.Add("g", src)
	if err != nil {
		t.Fatal(err)
	}
	if entry.NumVertices() != 400 || entry.Source() != src.Describe() || entry.Epoch() != 0 {
		t.Fatalf("re-registered g: %d vertices, source %q, epoch %d; want 400, %q, 0",
			entry.NumVertices(), entry.Source(), entry.Epoch(), src.Describe())
	}
	if boot := entry.PersistStats().Boot; boot != "created" {
		t.Fatalf("re-registered g booted %q, want created", boot)
	}
	gdir := filepath.Join(dir, "g")
	listing := func() []string {
		t.Helper()
		des, err := os.ReadDir(gdir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(des))
		for i, de := range des {
			names[i] = de.Name()
		}
		return names
	}
	want := []string{snap.CurrentFile, masterFileName(0), walFileName(0)}
	slices.Sort(want)
	if got := listing(); !slices.Equal(got, want) {
		t.Fatalf("directory after re-registration = %v, want only the new generation %v", got, want)
	}
	if man, err := snap.ReadManifest(gdir); err != nil || man.Prev != nil || len(man.Files) != 1 {
		t.Fatalf("manifest after re-registration = %+v, %v; want one generation, master only", man, err)
	}

	// The stale handle: an update fails as a deleted graph's, a first query
	// of a new algorithm runs but persists no binding.
	if _, _, err := old.ApplyEdges(batch); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("update through the deleted entry: err = %v, want ErrGraphNotFound", err)
	}
	if _, err := old.RunContext(t.Context(), "sssp", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatalf("query through the deleted entry: %v", err)
	}
	if got := listing(); !slices.Equal(got, want) {
		t.Fatalf("directory after the deleted entry's writes = %v, want %v", got, want)
	}
	if ps := entry.PersistStats(); ps.WALBatches != 0 || entry.Epoch() != 0 {
		t.Fatalf("new entry after the deleted entry's update: %+v, epoch %d", ps, entry.Epoch())
	}

	// A restart boots the new graph.
	entry2, err := NewRegistry(0, 1, dir).Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if entry2.NumVertices() != 400 || entry2.Epoch() != 0 {
		t.Fatalf("rebooted g: %d vertices, epoch %d; want 400, 0", entry2.NumVertices(), entry2.Epoch())
	}
}

// TestConcurrentDurableAddOneName races two durable registrations of one
// name with different graphs. Exactly one may win, the other must be told
// the name is taken, and the directory must hold the winner's graph: a
// fresh registry booting the name serves the winner's vertex count. The
// loser must not have written the directory at all, which is why the name
// is reserved before any of its files is touched.
func TestConcurrentDurableAddOneName(t *testing.T) {
	sizes := [2]uint32{64, 100}
	for round := range 40 {
		dir := t.TempDir()
		reg := NewRegistry(0, 1, dir)
		var (
			start   = make(chan struct{})
			wg      sync.WaitGroup
			entries [2]*GraphEntry
			errs    [2]error
		)
		for i, n := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				adj := persistTestAdj(n)
				<-start
				entries[i], errs[i] = reg.AddCOO("g", fmt.Sprintf("n%d", n), adj)
			}()
		}
		close(start)
		wg.Wait()
		win := -1
		for i, err := range errs {
			switch {
			case err == nil:
				if win >= 0 {
					t.Fatalf("round %d: both registrations of g succeeded", round)
				}
				win = i
			case !errors.Is(err, ErrGraphExists):
				t.Fatalf("round %d: the %d-vertex registration failed with %v, want ErrGraphExists", round, sizes[i], err)
			}
		}
		if win < 0 {
			t.Fatalf("round %d: neither registration succeeded: %v", round, errs)
		}
		if got := entries[win].NumVertices(); got != sizes[win] {
			t.Fatalf("round %d: the winner serves %d vertices, want %d", round, got, sizes[win])
		}
		booted, err := NewRegistry(0, 1, dir).Add("g", mustNotParseSource(dir))
		if err != nil {
			t.Fatalf("round %d: boot: %v", round, err)
		}
		if got := booted.NumVertices(); got != sizes[win] {
			t.Fatalf("round %d: the %d-vertex registration won, yet the directory boots %d vertices", round, sizes[win], got)
		}
	}
}

// TestDeletedDurableGraphUnmaps deletes a durable graph booted from its
// snapshot files while a bfs run on it is in flight: the run must finish
// with the graph's answer, and once it has, the process must map none of
// the graph's snapshot files — a deleted graph's mappings do not outlive
// the last request reading them. The mapping check reads /proc/self/maps
// and is skipped where there is none.
func TestDeletedDurableGraphUnmaps(t *testing.T) {
	dir := t.TempDir()
	src := Source{Generator: "rmat", Scale: 12, EdgeFactor: 8, Seed: 3}
	first, err := NewRegistry(0, 1, dir).Add("g", src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := first.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{DataDir: dir})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	g, err := srv.reg.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	gdir := filepath.Join(dir, "g") + string(filepath.Separator)
	mapped := func() []string {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			return nil
		}
		var files []string
		for line := range strings.Lines(string(b)) {
			if i := strings.Index(line, gdir); i >= 0 {
				files = append(files, strings.TrimSpace(line[i:]))
			}
		}
		return files
	}
	_, procErr := os.Stat("/proc/self/maps")
	if procErr == nil && len(mapped()) == 0 {
		t.Fatal("vacuous: the booted graph maps none of its snapshot files")
	}

	// The run, a batch of one behind the held instance, takes the instance
	// after the delete: it is in flight across it.
	hold := holdInstance(t, g, "bfs")
	type reply struct {
		code int
		body []byte
		err  error
	}
	done := make(chan reply)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/graphs/g/run", "application/json", strings.NewReader(`{"algo":"bfs","sources":[0]}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, body, err}
	}()
	waitSubmitted(t, srv.batcher, 1)
	if code, body := do(t, ts, http.MethodDelete, "/v1/graphs/g", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", code, body)
	}
	hold()
	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("bfs run across the delete = %d, %v: %s", r.code, r.err, r.body)
	}
	var got runReply
	if err := json.Unmarshal(r.body, &got); err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs run across the delete", ref.Values, got.Values)

	if procErr != nil {
		t.Skipf("no /proc/self/maps to check the mappings in: %v", procErr)
	}
	// The handler's release may trail its reply by a moment.
	for deadline := time.Now().Add(10 * time.Second); len(mapped()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the deleted graph's snapshot files are still mapped: %v", mapped())
		}
	}
}
