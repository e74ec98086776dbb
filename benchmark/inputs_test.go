package main

import (
	"bytes"
	"reflect"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// TestRootsAreNeverIsolated: every sampled root has a non-loop out-edge and
// lies in the largest component, so no run is a one-superstep, zero-edge one.
func TestRootsAreNeverIsolated(t *testing.T) {
	adj := rmatGraph(smokeSizes.serveScale)
	cands := rootCandidates(adj)
	if len(cands) == 0 || len(cands) == int(adj.NRows) {
		t.Fatalf("%d candidates of %d vertices: the permuted RMAT graph should have isolated vertices and a giant component", len(cands), adj.NRows)
	}
	outDeg := make([]int, adj.NRows)
	for _, e := range adj.Entries {
		if e.Row != e.Col {
			outDeg[e.Row]++
		}
	}
	roots := sampleRoots(cands, 64, gen.NewRNG(7), nil)
	seen := map[uint32]bool{}
	for _, r := range roots {
		if outDeg[r] == 0 {
			t.Errorf("root %d has no out-edge", r)
		}
		if seen[r] {
			t.Errorf("root %d drawn twice", r)
		}
		seen[r] = true
	}
	// A hand-made graph: component {0,1,2} beats {3,4}; 5 is isolated; 2 has
	// only an in-edge and a self-loop, so it may not be a root.
	small := sparse.NewCOO[float32](6, 6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 2}, {3, 4}, {4, 3}} {
		small.Add(e[0], e[1], 1)
	}
	if got := rootCandidates(small); !reflect.DeepEqual(got, []uint32{0, 1}) {
		t.Errorf("rootCandidates = %v, want [0 1]", got)
	}
}

func TestCentralBox(t *testing.T) {
	keep := centralBox(16)
	for v := uint32(0); v < 256; v++ {
		x, y := v%16, v/16
		want := x >= 7 && x < 9 && y >= 7 && y < 9
		if keep(v) != want {
			t.Errorf("centralBox(16)(%d) = %v, want %v", v, keep(v), want)
		}
	}
}

// TestSameSeedSameInputs: equal seeds give byte-identical operation lists and
// request bodies; a different seed gives different ones.
func TestSameSeedSameInputs(t *testing.T) {
	adj := rmatGraph(smokeSizes.serveScale)
	build := func(seed uint64) (pool []uint32, bodies [][]byte) {
		pool = sampleRoots(rootCandidates(adj), 16, gen.NewRNG(subSeed(seed, "source-pool")), nil)
		for client := 0; client < queryClients; client++ {
			for _, op := range queryMix(seed, client, pool, 4, 200) {
				bodies = append(bodies, op.body)
			}
		}
		for _, op := range readerMix(seed, pool, 100) {
			bodies = append(bodies, op.body)
		}
		_, ups, err := updateBatches(seed, adj, 50, 10)
		if err != nil {
			t.Fatal(err)
		}
		return pool, append(bodies, ups...)
	}
	poolA, a := build(42)
	poolB, b := build(42)
	_, c := build(43)
	if !reflect.DeepEqual(poolA, poolB) {
		t.Error("same seed, different source pools")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d bodies", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, body %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 42 and 43 share %d of %d bodies", same, len(a))
	}
}

// TestQueryMixShares: the drawn mix has the shares the workload states.
func TestQueryMixShares(t *testing.T) {
	pool := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	counts := map[string]int{}
	ops := queryMix(1, 0, pool, 4, 4000)
	for _, op := range ops {
		counts[op.class]++
		if op.class == "multi" && len(op.sources) != 4 {
			t.Fatalf("multi op with %d sources", len(op.sources))
		}
	}
	for class, want := range map[string]float64{"single": 0.60, "multi": 0.15, "scalar": 0.15, "stream": 0.10} {
		if got := float64(counts[class]) / float64(len(ops)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", class, got, want)
		}
	}
}

func TestRunBody(t *testing.T) {
	for _, c := range []struct {
		algo    string
		sources []uint32
		stream  bool
		want    string
	}{
		{"bfs", []uint32{7}, false, `{"algo":"bfs","sources":[7]}`},
		{"sssp", []uint32{7, 9}, false, `{"algo":"sssp","sources":[7,9]}`},
		{"ppr", []uint32{3}, false, `{"algo":"ppr","sources":[3],"params":{"iters":10}}`},
		{"pagerank", nil, false, `{"algo":"pagerank","params":{"iters":10}}`},
		{"components", nil, false, `{"algo":"components"}`},
		{"bfs", []uint32{5}, true, `{"algo":"bfs","params":{"source":5},"stream":true}`},
	} {
		if got := string(runBody(c.algo, c.sources, c.stream)); got != c.want {
			t.Errorf("runBody(%s) = %s, want %s", c.algo, got, c.want)
		}
	}
}
