package graph

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// The differential harness enforces the pipeline's hard guarantee: parallel
// ingestion — chunked parsing, parallel sort/dedup, concurrent partition
// builds — produces graphs bit-identical to the sequential path. Partition
// arrays, not just aggregate results, are compared.

func sameDCSCs(t *testing.T, what string, a, b []*sparse.DCSC[float32]) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d partitions vs %d", what, len(a), len(b))
	}
	for p := range a {
		x, y := a[p], b[p]
		if x.NRows != y.NRows || x.NCols != y.NCols || x.RowLo != y.RowLo || x.RowHi != y.RowHi {
			t.Fatalf("%s partition %d: shape mismatch", what, p)
		}
		if len(x.JC) != len(y.JC) || len(x.CP) != len(y.CP) || len(x.IR) != len(y.IR) || len(x.Val) != len(y.Val) {
			t.Fatalf("%s partition %d: array lengths differ (JC %d/%d CP %d/%d IR %d/%d Val %d/%d)",
				what, p, len(x.JC), len(y.JC), len(x.CP), len(y.CP), len(x.IR), len(y.IR), len(x.Val), len(y.Val))
		}
		for i := range x.JC {
			if x.JC[i] != y.JC[i] {
				t.Fatalf("%s partition %d: JC[%d] = %d vs %d", what, p, i, x.JC[i], y.JC[i])
			}
		}
		for i := range x.CP {
			if x.CP[i] != y.CP[i] {
				t.Fatalf("%s partition %d: CP[%d] = %d vs %d", what, p, i, x.CP[i], y.CP[i])
			}
		}
		for i := range x.IR {
			if x.IR[i] != y.IR[i] {
				t.Fatalf("%s partition %d: IR[%d] = %d vs %d", what, p, i, x.IR[i], y.IR[i])
			}
		}
		for i := range x.Val {
			if math.Float32bits(x.Val[i]) != math.Float32bits(y.Val[i]) {
				t.Fatalf("%s partition %d: Val[%d] = %v vs %v", what, p, i, x.Val[i], y.Val[i])
			}
		}
	}
}

func sameDegrees(t *testing.T, what string, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d degrees vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d] = %d vs %d", what, i, a[i], b[i])
		}
	}
}

// buildBoth constructs the same adjacency sequentially and in parallel
// (consuming clones) and asserts partition-level and degree-level identity.
func buildBoth(t *testing.T, adj *sparse.COO[float32], nparts, workers int) {
	t.Helper()
	seq, err := NewFromCOO[float32](adj.Clone(), Options{Partitions: nparts, Directions: Both, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewFromCOO[float32](adj.Clone(), Options{Partitions: nparts, Directions: Both, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumVertices() != par.NumVertices() || seq.NumEdges() != par.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vertices, %d/%d edges",
			seq.NumVertices(), par.NumVertices(), seq.NumEdges(), par.NumEdges())
	}
	sameDCSCs(t, "out", seq.OutPartitions(), par.OutPartitions())
	sameDCSCs(t, "in", seq.InPartitions(), par.InPartitions())
	sameDegrees(t, "outdeg", seq.OutDegrees(), par.OutDegrees())
	sameDegrees(t, "indeg", seq.InDegrees(), par.InDegrees())
}

// TestParallelBuildDifferentialQuick drives buildBoth over random COOs with
// duplicate edges and random partition/worker counts.
func TestParallelBuildDifferentialQuick(t *testing.T) {
	prop := func(seed int64, sizeSel uint16, partSel, workerSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(300) + 1)
		nnz := int(sizeSel) % 5000
		adj := sparse.NewCOO[float32](n, n)
		for i := 0; i < nnz; i++ {
			adj.Add(rng.Uint32()%n, rng.Uint32()%n, float32(rng.Intn(8)))
		}
		buildBoth(t, adj, int(partSel)%16+1, int(workerSel)%7+2)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBuildDifferentialGenerators drives buildBoth over the paper's
// workload generators.
func TestParallelBuildDifferentialGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		adj  *sparse.COO[float32]
	}{
		{"rmat", gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})},
		{"grid", gen.Grid(gen.GridOptions{Width: 40, Height: 25, MaxWeight: 5, Seed: 7})},
		{"bipartite", gen.Bipartite(gen.BipartiteOptions{Users: 300, Items: 50, Ratings: 4000, MaxRating: 5, Seed: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buildBoth(t, tc.adj, 13, 4)
		})
	}
}

// TestParallelParseDifferential writes one graph in all four on-disk formats
// and asserts that parallel parsing returns exactly the sequential triples.
func TestParallelParseDifferential(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 5, MaxWeight: 9})
	dir := t.TempDir()
	files := writeAllFormats(t, dir, adj)
	for name, path := range files {
		seq, err := LoadFileOptions(path, LoadOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := LoadFileOptions(path, LoadOptions{Parallelism: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seq.NRows != par.NRows || seq.NCols != par.NCols || len(seq.Entries) != len(par.Entries) {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range seq.Entries {
			if seq.Entries[i] != par.Entries[i] {
				t.Fatalf("%s: entry %d: %v vs %v", name, i, seq.Entries[i], par.Entries[i])
			}
		}
	}
}

// writeAllFormats materializes adj as .mtx, edge list and GMATBIN2
// files and returns their paths.
func writeAllFormats(t *testing.T, dir string, adj *sparse.COO[float32]) map[string]string {
	t.Helper()
	out := map[string]string{}

	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out["mtx"] = write("g.mtx", func(f *os.File) error { return WriteMTX(f, adj) })
	out["binv2"] = write("g2.bin", func(f *os.File) error { return WriteBinary2(f, adj, 7) })
	out["edgelist"] = write("g.txt", func(f *os.File) error {
		coo := adj.Clone()
		// An edge list cannot express trailing isolated vertices; pin the
		// count with a self-loop on the last vertex.
		coo.Add(adj.NRows-1, adj.NRows-1, 1)
		return writeEdgeList(f, coo)
	})
	return out
}

// TestParallelIngestRMAT18 is the acceptance test: load+build of a scale-18
// RMAT graph through the parallel pipeline must be bit-identical to the
// sequential path, and at GOMAXPROCS ≥ 8 at least 2× faster. Short mode and
// race builds scale the graph down (the identity check still runs); the
// timing gate applies only where the speedup is promised.
func TestParallelIngestRMAT18(t *testing.T) {
	// The ≥2× promise needs real hardware parallelism, not oversubscribed
	// goroutines on a small box.
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
	path := filepath.Join(dir, "rmat.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary2(f, adj, 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	nparts := 8 * runtime.GOMAXPROCS(0)

	ingest := func(workers int) (*Graph[float32, float32], time.Duration) {
		start := time.Now()
		coo, err := LoadFileOptions(path, LoadOptions{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewFromCOO[float32](coo, Options{Partitions: nparts, Directions: Both, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g, time.Since(start)
	}

	seq, seqTime := ingest(1)
	par, parTime := ingest(0) // 0 = GOMAXPROCS
	t.Logf("scale %d: sequential %v, parallel %v (%d procs)", scale, seqTime, parTime, runtime.GOMAXPROCS(0))

	sameDCSCs(t, "out", seq.OutPartitions(), par.OutPartitions())
	sameDCSCs(t, "in", seq.InPartitions(), par.InPartitions())
	sameDegrees(t, "outdeg", seq.OutDegrees(), par.OutDegrees())
	sameDegrees(t, "indeg", seq.InDegrees(), par.InDegrees())

	if timed && parTime*2 > seqTime {
		t.Errorf("parallel ingest %v not ≥2× faster than sequential %v at GOMAXPROCS=%d",
			parTime, seqTime, runtime.GOMAXPROCS(0))
	}
}
