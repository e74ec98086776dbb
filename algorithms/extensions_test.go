package algorithms

import (
	"encoding/binary"
	"hash/fnv"
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

// TestPersonalizedPageRankSetGolden pins a PPR run over a personalization
// set, duplicate included, bit for bit: an FNV-1a hash of every rank's
// float64 bits, and the engine tallies. A duplicated source is assigned its
// share, not accumulated, and still counts in the set's size, so the set's
// teleport mass is 3/4 of the restart probability.
func TestPersonalizedPageRankSetGolden(t *testing.T) {
	g, err := NewPersonalizedPageRankGraph(gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11}), 4)
	if err != nil {
		t.Fatal(err)
	}
	ranks, stats := must(RunPersonalizedPageRank(bg, g, []uint32{3, 40, 3, 77}, WithIterations(200), WithTolerance(1e-9), WithThreads(2)))
	h := fnv.New64a()
	for _, r := range ranks {
		binary.Write(h, binary.LittleEndian, math.Float64bits(r))
	}
	const (
		wantHash    = uint64(0xe44dd082673e9eed)
		wantIters   = 72
		wantSent    = int64(25632)
		wantApplies = int64(25848)
	)
	if got := h.Sum64(); got != wantHash {
		t.Errorf("rank hash = %#x, want %#x", got, wantHash)
	}
	if stats.Iterations != wantIters || stats.MessagesSent != wantSent || stats.Applies != wantApplies || stats.Reason != graphmat.Converged {
		t.Errorf("stats = %+v, want %d supersteps, %d messages, %d applies, converged", stats, wantIters, wantSent, wantApplies)
	}

	// PageRank on the same graph, pinned the same way, converging under the
	// cap.
	gPR, err := NewPageRankGraph(gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11}), 4)
	if err != nil {
		t.Fatal(err)
	}
	prRanks, prStats := must(RunPageRank(bg, gPR, WithIterations(200), WithTolerance(1e-9), WithThreads(2)))
	hPR := fnv.New64a()
	for _, r := range prRanks {
		binary.Write(hPR, binary.LittleEndian, math.Float64bits(r))
	}
	const (
		wantPRHash    = uint64(0xc4a68c0a53eb538f)
		wantPRIters   = 117
		wantPRSent    = int64(41652)
		wantPRApplies = int64(42003)
	)
	if got := hPR.Sum64(); got != wantPRHash {
		t.Errorf("pagerank rank hash = %#x, want %#x", got, wantPRHash)
	}
	if prStats.Iterations != wantPRIters || prStats.MessagesSent != wantPRSent || prStats.Applies != wantPRApplies || prStats.Reason != graphmat.Converged {
		t.Errorf("pagerank stats = %+v, want %d supersteps, %d messages, %d applies, converged", prStats, wantPRIters, wantPRSent, wantPRApplies)
	}
}

// TestRankRunWithNothingToSendConverges runs PageRank and PPR on a graph with
// no edges, where no vertex sends: the first superstep changes nothing, so
// each run converges there with its seeded ranks instead of spinning empty
// supersteps to the iteration cap.
func TestRankRunWithNothingToSendConverges(t *testing.T) {
	const n = 64
	check := func(t *testing.T, stats graphmat.Stats) {
		t.Helper()
		if stats.Iterations != 1 || stats.Reason != graphmat.Converged || stats.MessagesSent != 0 {
			t.Errorf("stats = %+v, want one superstep, no messages, converged", stats)
		}
	}
	t.Run("pagerank", func(t *testing.T) {
		g, err := NewPageRankGraph(sparse.NewCOO[float32](n, n), 4)
		if err != nil {
			t.Fatal(err)
		}
		ranks, stats := must(RunPageRank(bg, g, WithIterations(50)))
		for v, r := range ranks {
			if r != 1 {
				t.Fatalf("rank[%d] = %v, want the seeded 1", v, r)
			}
		}
		check(t, stats)
	})
	g, err := NewPersonalizedPageRankGraph(sparse.NewCOO[float32](n, n), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("ppr", func(t *testing.T) {
		ranks, stats := must(RunPersonalizedPageRank(bg, g, []uint32{3, 7}, WithIterations(50)))
		for v, r := range ranks {
			want := 0.0
			if v == 3 || v == 7 {
				want = 0.5
			}
			if r != want {
				t.Fatalf("rank[%d] = %v, want the seeded %v", v, r, want)
			}
		}
		check(t, stats)
	})
	t.Run("ppr_batch", func(t *testing.T) {
		sources := []uint32{3, 7}
		cols, stats := must(RunPersonalizedPageRankBatch(bg, g, sources, WithIterations(50)))
		for s, ranks := range cols {
			for v, r := range ranks {
				want := 0.0
				if uint32(v) == sources[s] {
					want = 1
				}
				if r != want {
					t.Fatalf("column %d: rank[%d] = %v, want the seeded %v", s, v, r, want)
				}
			}
		}
		check(t, stats)
	})
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
