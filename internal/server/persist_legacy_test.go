package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"graphmat/algorithms"
	"graphmat/internal/snap"
)

// instFileName is the per-algorithm image file name of the layout before
// algorithms of one key shared a store: the legacy fixtures hold such files.
func instFileName(algo string, tag uint64) string {
	return fmt.Sprintf("%s%s-%d.snap", instFilePfx, algo, tag)
}

// legacyPerAlgoBatches are the four batches testdata/legacy_per_algo took:
// persistTestBatches, then two more.
func legacyPerAlgoBatches() [][]algorithms.EdgeUpdate {
	return append(persistTestBatches(),
		[]algorithms.EdgeUpdate{
			{Src: 7, Dst: 200, Val: 1.5},
			{Src: 1, Dst: 2, Del: true},
			{Src: 100, Dst: 3, Val: 6},
		},
		[]algorithms.EdgeUpdate{
			{Src: 200, Dst: 7, Val: 2.5},
			{Src: 5, Dst: 40, Del: true},
			{Src: 12, Dst: 250, Val: 0.5},
		},
	)
}

// TestPersistBootsLegacyPerAlgoImages boots testdata/legacy_per_algo, a data
// directory written when every algorithm had its own image: graph g over
// persistTestAdj(256), sssp queried at epoch 0, batch 1, pagerank queried,
// batch 2, bfs queried, batches 3 and 4 — so master-0, inst-sssp-0,
// inst-pagerank-1, inst-bfs-2 and a WAL of four batches. sssp and pagerank
// share a key, so they boot onto one store, opened from the newer image:
// every reply is byte for byte that of a fresh entry whose stores were built
// where the kept images were (the directed one at epoch 1, the symmetric one
// at epoch 2) and took the same batches, timing and scheduler tallies aside.
// The first checkpoint after the boot writes the store layout; the legacy
// files stay as the fallback generation until the second one.
func TestPersistBootsLegacyPerAlgoImages(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy_per_algo"))); err != nil {
		t.Fatal(err)
	}
	for algo, tag := range map[string]uint64{"sssp": 0, "pagerank": 1, "bfs": 2} {
		sf, err := snap.Open(filepath.Join(dir, "g", instFileName(algo, tag)))
		if err != nil {
			t.Fatalf("the fixture lacks %s's own image: %v", algo, err)
		}
		if got := sf.Image().Tag; got != tag {
			t.Errorf("%s's image has tag %d, want %d", algo, got, tag)
		}
		sf.Close()
	}

	legacy := New(Config{DataDir: dir})
	entry, err := legacy.reg.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ps := entry.PersistStats(); ps.Boot != "snapshot+wal" || ps.ReplayedBatches != 4 || ps.ReplayedRecords != 12 {
		t.Errorf("legacy boot = %+v, want snapshot+wal replaying 4 batches / 12 records", ps)
	}
	if got, want := entry.BuiltAlgorithms(), []string{"bfs", "pagerank", "sssp"}; !slices.Equal(got, want) {
		t.Errorf("built after boot = %v, want %v", got, want)
	}
	stores := entry.Stores()
	if len(stores) != 2 || stores[0].Key != "directed" || !slices.Equal(stores[0].Algorithms, []string{"pagerank", "sssp"}) ||
		stores[1].Key != "symmetric" || !slices.Equal(stores[1].Algorithms, []string{"bfs"}) {
		t.Fatalf("stores after boot = %+v, want sssp and pagerank on one directed store, bfs on a symmetric one", stores)
	}

	fresh := New(Config{})
	fentry, err := fresh.reg.AddCOO("g", "seed", persistTestAdj(256))
	if err != nil {
		t.Fatal(err)
	}
	batches := legacyPerAlgoBatches()
	steps := []func() error{
		func() error { _, _, err := fentry.ApplyEdges(batches[0]); return err },
		func() error {
			_, err := fentry.RunContext(t.Context(), "pagerank", algorithms.Params{Iterations: 10}, nil)
			return err
		},
		func() error {
			_, err := fentry.RunContext(t.Context(), "sssp", algorithms.Params{Source: 0}, nil)
			return err
		},
		func() error { _, _, err := fentry.ApplyEdges(batches[1]); return err },
		func() error {
			_, err := fentry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
			return err
		},
		func() error { _, _, err := fentry.ApplyEdges(batches[2]); return err },
		func() error { _, _, err := fentry.ApplyEdges(batches[3]); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("fresh history step %d: %v", i, err)
		}
	}

	lts, fts := httptest.NewServer(legacy), httptest.NewServer(fresh)
	t.Cleanup(lts.Close)
	t.Cleanup(fts.Close)
	clock := regexp.MustCompile(`"duration_ms":[0-9.e+-]*|"Sched":\{[^}]*\}`)
	same := func(when string) {
		t.Helper()
		queries := map[string]map[string]any{"pagerank": {"iters": 10}}
		for _, algo := range []string{"bfs", "sssp"} {
			for _, src := range []int{0, 5, 31, 200} {
				queries[fmt.Sprintf("%s %d", algo, src)] = map[string]any{"source": src}
			}
		}
		for what, body := range queries {
			algo, _, _ := strings.Cut(what, " ")
			lcode, lbody := do(t, lts, http.MethodPost, "/v1/graphs/g/run/"+algo, body)
			fcode, fbody := do(t, fts, http.MethodPost, "/v1/graphs/g/run/"+algo, body)
			if lcode != http.StatusOK || fcode != http.StatusOK {
				t.Fatalf("%s %s = %d / %d: %s / %s", when, what, lcode, fcode, lbody, fbody)
			}
			if l, f := clock.ReplaceAll(lbody, nil), clock.ReplaceAll(fbody, nil); !bytes.Equal(l, f) {
				t.Errorf("%s, %s:\n%s\nfresh build:\n%s", when, what, l, f)
			}
		}
	}
	same("after the legacy boot")

	// Batches large enough to compact both stores, each triggering a
	// checkpoint in the store layout.
	compacting := func(round uint32) []algorithms.EdgeUpdate {
		var big []algorithms.EdgeUpdate
		for v := uint32(0); v < 256; v++ {
			big = append(big, algorithms.EdgeUpdate{Src: v, Dst: (v*13 + 11 + round) % 256, Val: float32(v%7) + 1})
		}
		return big
	}
	checkpointed := func(round uint32, want []string) {
		t.Helper()
		for _, e := range []*GraphEntry{entry, fentry} {
			if _, _, err := e.ApplyEdges(compacting(round)); err != nil {
				t.Fatal(err)
			}
		}
		if ps := entry.PersistStats(); ps.Checkpoints != int64(round) || ps.CheckpointErrors != 0 {
			t.Errorf("after compacting batch %d: %+v, want %d checkpoints", round, ps, round)
		}
		files, err := os.ReadDir(filepath.Join(dir, "g"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		if !slices.Equal(names, want) {
			t.Errorf("directory after compacting batch %d = %v, want %v", round, names, want)
		}
		man, err := snap.ReadManifest(filepath.Join(dir, "g"))
		if err != nil {
			t.Fatal(err)
		}
		tag := man.Tag
		for algo, key := range map[string]string{"bfs": "symmetric", "pagerank": "directed", "sssp": "directed"} {
			if got, want := man.Files[algoCompPfx+algo], fmt.Sprintf("store-%s-%d.snap", key, tag); got != want {
				t.Errorf("manifest names %q for %s, want %q", got, algo, want)
			}
		}
		same(fmt.Sprintf("after compacting batch %d", round))
	}
	// The legacy generation stays as the first checkpoint's fallback.
	checkpointed(1, []string{"CURRENT", "inst-bfs-2.snap", "inst-pagerank-1.snap", "inst-sssp-0.snap", "master-0.snap",
		"master-5.snap", "store-directed-5.snap", "store-symmetric-5.snap", "wal-0.log", "wal-5.log"})
	checkpointed(2, []string{"CURRENT", "master-5.snap", "master-6.snap", "store-directed-5.snap", "store-directed-6.snap",
		"store-symmetric-5.snap", "store-symmetric-6.snap", "wal-5.log", "wal-6.log"})
}
