package algorithms

import (
	"math"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

func TestHITSOnKnownGraph(t *testing.T) {
	// Star: hub vertex 0 points at authorities 1..4. Vertex 0 must get all
	// the hub mass, vertices 1..4 equal authority mass.
	coo := sparse.NewCOO[float32](5, 5)
	for v := uint32(1); v < 5; v++ {
		coo.Add(0, v, 1)
	}
	g, err := NewHITSGraph(coo, 2)
	if err != nil {
		t.Fatal(err)
	}
	scores, stats := must(RunHITS(bg, g, WithIterations(10), WithThreads(2)))
	if stats.Iterations != 20 { // two half-steps per iteration
		t.Errorf("Iterations = %d, want 20", stats.Iterations)
	}
	if scores[0].Hub < 0.99 {
		t.Errorf("hub[0] = %v, want ~1", scores[0].Hub)
	}
	for v := 1; v < 5; v++ {
		if math.Abs(scores[v].Auth-0.5) > 1e-9 { // 4 equal authorities, L2 normalized
			t.Errorf("auth[%d] = %v, want 0.5", v, scores[v].Auth)
		}
		if scores[v].Hub != 0 {
			t.Errorf("hub[%d] = %v, want 0", v, scores[v].Hub)
		}
	}
	if scores[0].Auth != 0 {
		t.Errorf("auth[0] = %v, want 0", scores[0].Auth)
	}
}

func TestHITSNormalized(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 3})
	coo.RemoveSelfLoops()
	g, err := NewHITSGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	scores, _ := must(RunHITS(bg, g, WithIterations(15), WithThreads(2)))
	var hub2, auth2 float64
	for _, s := range scores {
		hub2 += s.Hub * s.Hub
		auth2 += s.Auth * s.Auth
		if s.Hub < 0 || s.Auth < 0 {
			t.Fatal("negative score")
		}
	}
	if math.Abs(hub2-1) > 1e-9 || math.Abs(auth2-1) > 1e-9 {
		t.Errorf("norms: hub²=%v auth²=%v, want 1", hub2, auth2)
	}
}

func TestHITSPowerIterationConverges(t *testing.T) {
	// On a fixed graph, doubling iterations must barely change the scores
	// (power iteration converges geometrically).
	coo := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 4})
	coo.RemoveSelfLoops()
	build := func() *graphmat.Graph[HITSVertex, float32] {
		g, err := NewHITSGraph(coo.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, _ := must(RunHITS(bg, build(), WithIterations(30)))
	b, _ := must(RunHITS(bg, build(), WithIterations(60)))
	var maxDiff float64
	for v := range a {
		maxDiff = math.Max(maxDiff, math.Abs(a[v].Auth-b[v].Auth))
		maxDiff = math.Max(maxDiff, math.Abs(a[v].Hub-b[v].Hub))
	}
	if maxDiff > 1e-6 {
		t.Errorf("not converged after 30 iterations: max diff %v", maxDiff)
	}
}

func TestPersonalizedPageRankLocality(t *testing.T) {
	// Ring + random chords, sources in one corner: rank must concentrate
	// near the sources and vanish on vertices unreachable from them.
	n := uint32(256)
	coo := sparse.NewCOO[float32](n, n)
	rng := gen.NewRNG(5)
	for v := uint32(0); v+1 < n/2; v++ { // a path component 0..127
		coo.Add(v, v+1, 1)
		coo.Add(v+1, v, 1)
	}
	for v := n / 2; v+1 < n; v++ { // a second, disconnected path 128..255
		coo.Add(v, v+1, 1)
		coo.Add(v+1, v, 1)
	}
	for i := 0; i < 64; i++ { // chords within the first component
		a, b := rng.Uint32n(n/2), rng.Uint32n(n/2)
		if a != b {
			coo.Add(a, b, 1)
		}
	}
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	g, err := NewPersonalizedPageRankGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	sources := []uint32{0, 1}
	ranks, _ := must(RunPersonalizedPageRank(bg, g, sources, WithIterations(100), WithTolerance(1e-12)))

	// Unreachable component must have zero rank.
	for v := n / 2; v < n; v++ {
		if ranks[v] != 0 {
			t.Fatalf("rank[%d] = %v on unreachable component", v, ranks[v])
		}
	}
	// Sources outrank a far-away vertex in the same component.
	if ranks[0] <= ranks[n/2-1] || ranks[1] <= ranks[n/2-1] {
		t.Errorf("no locality: rank[0]=%v rank[1]=%v rank[far]=%v", ranks[0], ranks[1], ranks[n/2-1])
	}
	// Total rank is a (sub-)probability mass.
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if sum <= 0 || sum > 1.5 {
		t.Errorf("rank mass = %v", sum)
	}
}

func TestPersonalizedPageRankReducesToUniformTeleport(t *testing.T) {
	// With ALL vertices as sources, PPR is ordinary PageRank up to the
	// restart mass scaling (restart r/n per vertex instead of r).
	coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 8, Seed: 6})
	coo.RemoveSelfLoops()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	n := coo.NRows

	gPPR, err := NewPersonalizedPageRankGraph(coo.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	ppr, _ := must(RunPersonalizedPageRank(bg, gPPR, all, WithIterations(60)))

	gPR, err := NewPageRankGraph(coo.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := must(RunPageRank(bg, gPR, WithIterations(60)))

	// PPR with uniform sources = PR / n (ranks are distributions vs counts).
	for v := uint32(0); v < n; v++ {
		want := pr[v] / float64(n)
		if math.Abs(ppr[v]-want) > 1e-9 {
			t.Fatalf("ppr[%d] = %v, want %v", v, ppr[v], want)
		}
	}
}
