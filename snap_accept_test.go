package graphmat_test

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// TestSnapshotRestart18 is the persistence acceptance test: booting a
// scale-18 BFS instance from its GMATSNAP snapshot (mmap + zero-copy
// partition assembly) must be ≥10× faster than the cold path it replaces —
// parsing the graph file and rebuilding — at GOMAXPROCS ≥ 8, and the first
// query on the mapped instance must be bit-identical to the on-heap build
// without any rebuild. Short mode and race builds scale the graph down (the
// identity checks still run); the timing gate applies only where the
// speedup is promised.
func TestSnapshotRestart18(t *testing.T) {
	scale, timed := 18, true
	if runtime.GOMAXPROCS(0) < 8 || runtime.NumCPU() < 8 {
		scale, timed = 15, false
	}
	if raceEnabled {
		scale, timed = 13, false
	}
	if testing.Short() {
		scale, timed = 12, false
	}

	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
	dir := t.TempDir()

	// The cold path: the graph file a daemon without -data-dir reboots from.
	// GMATBIN2 is the fastest format we parse — generous to the side being
	// beaten.
	binPath := filepath.Join(dir, "g.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary2(f, adj, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec, _ := algorithms.Lookup("bfs")
	parseAndBuild := func() (algorithms.Instance, time.Duration) {
		start := time.Now()
		loaded, err := graphmat.LoadFileOptions(binPath, graphmat.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(loaded, 0)
		if err != nil {
			t.Fatal(err)
		}
		return inst, time.Since(start)
	}
	heap, parseBuildTime := parseAndBuild()
	if _, again := parseAndBuild(); again < parseBuildTime {
		parseBuildTime = again
	}

	// Checkpoint the built instance — what graphmatd's -data-dir does after
	// registration — then time the restart path: map the file and assemble.
	img, err := heap.Store().SnapImage(1)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.snap")
	if err := graphmat.WriteSnap(snapPath, img); err != nil {
		t.Fatal(err)
	}
	boot := func() (*graphmat.SnapFile, algorithms.Instance, time.Duration) {
		start := time.Now()
		sf, err := graphmat.OpenSnap(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := algorithms.OpenStore(spec.Key, sf.Image())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Bind(st)
		if err != nil {
			t.Fatal(err)
		}
		return sf, inst, time.Since(start)
	}
	sf, mapped, bootTime := boot()
	defer sf.Close()
	if sf2, _, again := boot(); true {
		sf2.Close()
		if again < bootTime {
			bootTime = again
		}
	}

	// First query straight off the mapping: no rebuild may have happened,
	// and the distances must match the on-heap oracle bit for bit.
	if got := mapped.Store().Stats(); got.Compactions != 0 {
		t.Fatalf("mapped instance rebuilt before first query: %+v", got)
	}
	if mapped.Store().NumEdges() != heap.Store().NumEdges() {
		t.Fatalf("edge counts diverge: mapped %d vs heap %d", mapped.Store().NumEdges(), heap.Store().NumEdges())
	}
	queryStart := time.Now()
	gotRes, err := mapped.Run(algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	queryTime := time.Since(queryStart)
	refRes, err := heap.Run(algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range refRes.Values {
		if math.Float64bits(gotRes.Values[v]) != math.Float64bits(refRes.Values[v]) {
			t.Fatalf("dist[%d]: mapped %v vs heap %v", v, gotRes.Values[v], refRes.Values[v])
		}
	}

	t.Logf("scale %d (%d procs): snapshot boot %v vs parse+build %v (%.1fx); first query %v",
		scale, runtime.GOMAXPROCS(0), bootTime, parseBuildTime,
		float64(parseBuildTime)/float64(bootTime), queryTime)
	if timed && bootTime*10 > parseBuildTime {
		t.Errorf("snapshot boot %v not ≥10× faster than parse+build %v at GOMAXPROCS=%d",
			bootTime, parseBuildTime, runtime.GOMAXPROCS(0))
	}
}
