package reference_test

import (
	"context"
	"math"
	"testing"

	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

// The reference implementations are the repo's ground truth, so they get
// their own agreement suite: on small graphs every reference result must
// match the corresponding GraphMat vertex program (which is itself tested
// against hand-computed cases elsewhere). Mutual agreement of two
// independently-written implementations is the strongest check we have
// without golden files.

func smallGraph() *sparse.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 6, Seed: 17, MaxWeight: 9})
}

func TestReferencePageRankAgrees(t *testing.T) {
	const iters = 20
	adj := smallGraph()
	// The engine preprocesses with NewPageRankGraph (self-loops removed,
	// duplicates summed out by the build); feed the reference the same
	// edge set the engine actually runs on.
	g, err := algorithms.NewPageRankGraph(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(iters))
	if err != nil {
		t.Fatal(err)
	}

	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.SortRowMajor()
	pre.DedupKeepFirst()
	want := reference.PageRank(pre.NRows, pre.Entries, 0.15, iters)

	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*math.Max(1, math.Abs(want[v])) {
			t.Fatalf("vertex %d: engine %v, reference %v", v, got[v], want[v])
		}
	}
}

func TestReferenceBFSAgrees(t *testing.T) {
	adj := smallGraph()
	g, err := algorithms.NewBFSGraph(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := algorithms.RunBFS(context.Background(), g, 3)
	if err != nil {
		t.Fatal(err)
	}

	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.SortRowMajor()
	pre.DedupKeepFirst()
	pre.Symmetrize()
	want := reference.BFS(pre.NRows, pre.Entries, 3)

	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: engine %d, reference %d", v, got[v], want[v])
		}
	}
}

func TestReferenceSSSPAgrees(t *testing.T) {
	adj := smallGraph()
	g, err := algorithms.NewSSSPGraph(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := algorithms.RunSSSP(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}

	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.SortRowMajor()
	pre.DedupKeepFirst()
	want := reference.SSSP(pre.NRows, pre.Entries, 0)

	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: engine %v, reference %v", v, got[v], want[v])
		}
	}
}

func TestReferenceComponentsAgrees(t *testing.T) {
	adj := smallGraph()
	g, err := algorithms.NewCCGraph(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := algorithms.RunConnectedComponents(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.Symmetrize()
	want := reference.ConnectedComponents(pre.NRows, pre.Entries)

	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: engine %d, reference %d", v, got[v], want[v])
		}
	}
}

func TestReferenceTrianglesAgrees(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 6, Seed: 23, Params: gen.RMATTriangle})
	g, err := algorithms.NewTriangleGraph(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := algorithms.RunTriangleCount(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	pre := adj.Clone()
	pre.RemoveSelfLoops()
	pre.SortRowMajor()
	pre.DedupKeepFirst()
	pre.Symmetrize()
	pre.UpperTriangle()
	want := reference.Triangles(pre.NRows, pre.Entries)

	if got != want {
		t.Fatalf("engine counted %d triangles, reference %d", got, want)
	}
}

func TestReferenceBFSHandCase(t *testing.T) {
	// 0-1-2 path plus isolated vertex 3.
	coo := sparse.NewCOO[float32](4, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 1, 1)
	dist := reference.BFS(4, coo.Entries, 0)
	want := []uint32{0, 1, 2, math.MaxUint32}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestReferenceSSSPHandCase(t *testing.T) {
	// Two routes 0→2: direct weight 5, via 1 weight 2+2=4.
	coo := sparse.NewCOO[float32](3, 3)
	coo.Add(0, 2, 5)
	coo.Add(0, 1, 2)
	coo.Add(1, 2, 2)
	dist := reference.SSSP(3, coo.Entries, 0)
	if dist[2] != 4 {
		t.Fatalf("dist[2] = %v, want 4 (shorter two-hop route)", dist[2])
	}
}

func TestReferenceCFLoss(t *testing.T) {
	// One rating 0→1 of 3 with unit factors of dimension 2: dot = 2,
	// error (3-2)^2 = 1, regularizer lambda * (1+1+1+1).
	ratings := []sparse.Triple[float32]{{Row: 0, Col: 1, Val: 3}}
	factors := [][]float32{{1, 1}, {1, 1}}
	loss := reference.CFLoss(ratings, factors, 0.5)
	if math.Abs(loss-3) > 1e-12 {
		t.Fatalf("loss = %v, want 3", loss)
	}
}
