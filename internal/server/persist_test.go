package server

import (
	"math"
	"os"
	"path/filepath"
	"testing"

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
	if _, err := entry.Run("bfs", algorithms.Params{Source: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := entry.Run("pagerank", algorithms.Params{Iterations: 10}); err != nil {
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
	refBFS, err := entry.Run("bfs", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	refPR, err := entry.Run("pagerank", algorithms.Params{Iterations: 10})
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

	gotBFS, err := entry2.Run("bfs", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after restart", refBFS.Values, gotBFS.Values)
	gotPR, err := entry2.Run("pagerank", algorithms.Params{Iterations: 10})
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
	if _, err := entry.Run("bfs", algorithms.Params{Source: 0}); err != nil {
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
	ref, err := entry.Run("bfs", algorithms.Params{Source: 0})
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
	got, err := entry2.Run("bfs", algorithms.Params{Source: 0})
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
	got3, err := entry3.Run("bfs", algorithms.Params{Source: 0})
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
	if _, err := entry.Run("bfs", algorithms.Params{Source: 0}); err != nil {
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
	ref, err := entry.Run("bfs", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := entry2.Run("bfs", algorithms.Params{Source: 0})
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
		if _, err := entry.Run(algo, params); err != nil {
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
		if ref[algo], err = entry.Run(algo, params); err != nil {
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
		g, err := graph.NewGraphFromImage[uint32](&img)
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
		got, err := entry2.Run(algo, params)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, algo+" after legacy boot", want.Values, got.Values)
		for name, series := range want.Series {
			sameValues(t, algo+" "+name+" after legacy boot", series, got.Series[name])
		}
	}
}
