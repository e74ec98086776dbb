package algorithms

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

var bg = context.Background()

// must unwraps a Run function's result for tests that run uncancelled with
// fresh scratch, where an error can only be a bug.
func must[T any](out T, stats graphmat.Stats, err error) (T, graphmat.Stats) {
	if err != nil {
		panic(err)
	}
	return out, stats
}

// rmatEdges produces a deduplicated RMAT edge list for tests.
func rmatEdges(seed uint64, scale, ef, maxW int) *sparse.COO[float32] {
	c := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: ef, Seed: seed, MaxWeight: maxW})
	c.RemoveSelfLoops()
	c.SortRowMajor()
	c.DedupKeepFirst()
	return c
}

func TestPageRankMatchesReference(t *testing.T) {
	coo := rmatEdges(11, 8, 8, 0)
	refEdges := append([]sparse.Triple[float32](nil), coo.Entries...)
	n := coo.NRows

	g, err := NewPageRankGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 20
	got, stats := must(RunPageRank(bg, g, WithIterations(iters), WithThreads(2)))
	want := reference.PageRank(n, refEdges, 0.15, iters)
	for v := uint32(0); v < n; v++ {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if stats.Iterations != iters {
		t.Errorf("Iterations = %d, want %d", stats.Iterations, iters)
	}
}

func TestPageRankConvergesWithTolerance(t *testing.T) {
	coo := rmatEdges(12, 7, 8, 0)
	g, err := NewPageRankGraph(coo, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := must(RunPageRank(bg, g, WithIterations(500), WithTolerance(1e-10)))
	if stats.Iterations >= 500 {
		t.Errorf("did not converge in %d iterations", stats.Iterations)
	}
	if stats.Iterations < 5 {
		t.Errorf("converged suspiciously fast: %d iterations", stats.Iterations)
	}
}

func TestPageRankRanksAreProbabilistic(t *testing.T) {
	// On a strongly connected cycle, every vertex has identical rank 1.
	n := uint32(10)
	coo := sparse.NewCOO[float32](n, n)
	for v := uint32(0); v < n; v++ {
		coo.Add(v, (v+1)%n, 1)
	}
	g, err := NewPageRankGraph(coo, 2)
	if err != nil {
		t.Fatal(err)
	}
	ranks, _ := must(RunPageRank(bg, g, WithIterations(50)))
	for v, r := range ranks {
		if math.Abs(r-1) > 1e-9 {
			t.Errorf("cycle rank[%d] = %v, want 1", v, r)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	coo := rmatEdges(21, 8, 8, 0)
	g, err := NewBFSGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The reference must see the symmetrized edges the graph actually holds.
	sym := g.Adjacency()
	root := uint32(0)
	got, _ := must(RunBFS(bg, g, root, WithThreads(2)))
	want := reference.BFS(g.NumVertices(), sym.Entries, root)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	// Two disconnected pairs.
	coo := sparse.NewCOO[float32](4, 4)
	coo.Add(0, 1, 1)
	coo.Add(2, 3, 1)
	g, err := NewBFSGraph(coo, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := must(RunBFS(bg, g, 0))
	if dist[0] != 0 || dist[1] != 1 {
		t.Errorf("reachable distances wrong: %v", dist)
	}
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Errorf("unreachable distances wrong: %v", dist)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	coo := rmatEdges(31, 8, 8, 10)
	g, err := NewSSSPGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Adjacency()
	got, _ := must(RunSSSP(bg, g, 0, WithThreads(2)))
	want := reference.SSSP(g.NumVertices(), adj.Entries, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 41, Params: gen.RMATTriangle})
	g, err := NewTriangleGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	dag := g.Adjacency()
	got, _ := must(RunTriangleCount(bg, g, WithThreads(2)))
	want := reference.Triangles(g.NumVertices(), dag.Entries)
	if got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
	if got == 0 {
		t.Fatal("test graph has no triangles; pick a denser seed")
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// K4 has 4 triangles.
	k4 := sparse.NewCOO[float32](4, 4)
	for i := uint32(0); i < 4; i++ {
		for j := uint32(0); j < 4; j++ {
			if i != j {
				k4.Add(i, j, 1)
			}
		}
	}
	g, err := NewTriangleGraph(k4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := must(RunTriangleCount(bg, g)); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
	// A 4-cycle has none.
	c4 := sparse.NewCOO[float32](4, 4)
	for i := uint32(0); i < 4; i++ {
		c4.Add(i, (i+1)%4, 1)
	}
	g2, err := NewTriangleGraph(c4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := must(RunTriangleCount(bg, g2)); got != 0 {
		t.Errorf("C4 triangles = %d, want 0", got)
	}
}

func TestTriangleCountReusable(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 8, Seed: 5, Params: gen.RMATTriangle})
	g, err := NewTriangleGraph(coo, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := must(RunTriangleCount(bg, g))
	b, _ := must(RunTriangleCount(bg, g))
	if a != b {
		t.Errorf("second run differs: %d vs %d", a, b)
	}
}

func TestCFLossDecreases(t *testing.T) {
	ratings := gen.Bipartite(gen.BipartiteOptions{Users: 300, Items: 40, Ratings: 5000, Seed: 7})
	ratings.SortRowMajor()
	ratings.DedupKeepFirst()
	ratingEdges := append([]sparse.Triple[float32](nil), ratings.Entries...)

	g, err := NewCFGraph(ratings, 4)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, iters := range []int{1, 3, 6, 12} {
		factors, _ := CF(g, CFOptions{Iterations: iters, Gamma: 0.002, Lambda: 0.05, InitSeed: 1,
			Config: graphmat.Config{Threads: 2}})
		ff := make([][]float32, len(factors))
		for i := range factors {
			ff[i] = factors[i][:]
		}
		loss := reference.CFLoss(ratingEdges, ff, 0.05)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("loss diverged at %d iterations: %v", iters, loss)
		}
		if loss >= prev {
			t.Fatalf("loss did not decrease: %v -> %v at %d iterations", prev, loss, iters)
		}
		prev = loss
	}
}

func TestCFDeterministic(t *testing.T) {
	mk := func() []CFVec {
		ratings := gen.Bipartite(gen.BipartiteOptions{Users: 100, Items: 20, Ratings: 1000, Seed: 9})
		g, err := NewCFGraph(ratings, 3)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := CF(g, CFOptions{Iterations: 5, InitSeed: 42, Config: graphmat.Config{Threads: 2}})
		return f
	}
	a, b := mk(), mk()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("factors differ at vertex %d", v)
		}
	}
}

func TestConnectedComponentsMatchesReference(t *testing.T) {
	coo := rmatEdges(51, 8, 2, 0) // sparse: many components
	g, err := NewCCGraph(coo, 4)
	if err != nil {
		t.Fatal(err)
	}
	sym := g.Adjacency()
	got, _ := must(RunConnectedComponents(bg, g, WithThreads(2)))
	want := reference.ConnectedComponents(g.NumVertices(), sym.Entries)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestStoppedBatchKeepsEverySeries: a batch stopped in its first block of
// sources still returns one series per source — the stopped block's partial
// state, and the seeded start state of the block that never ran.
func TestStoppedBatchKeepsEverySeries(t *testing.T) {
	g, err := NewBFSGraph(rmatEdges(7, 8, 8, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]uint32, graphmat.MaxBlockSources+6)
	for i := range sources {
		sources[i] = uint32(i)
	}
	stop := errors.New("stop")
	out, stats, err := RunBFSBatch(bg, g, sources, WithObserver(func(graphmat.IterationInfo) error { return stop }))
	if !errors.Is(err, stop) || stats.Reason != graphmat.StoppedByObserver || stats.Iterations != 1 {
		t.Fatalf("err = %v, stats = %+v; want the observer's stop after one superstep", err, stats)
	}
	if len(out) != len(sources) {
		t.Fatalf("%d series for %d sources", len(out), len(sources))
	}
	for i, dist := range out {
		if len(dist) != int(g.NumVertices()) || dist[sources[i]] != 0 {
			t.Fatalf("series %d: %d values, distance %d at its source", i, len(dist), dist[sources[i]])
		}
	}
	for i, dist := range out[graphmat.MaxBlockSources:] {
		for v, d := range dist {
			if (d == 0) != (uint32(v) == sources[graphmat.MaxBlockSources+i]) || (d != 0 && d != Unreached) {
				t.Fatalf("unrun block: series %d has distance %d at %d, want its seeded start", i, d, v)
			}
		}
	}
}

func TestDegreesMatchGraph(t *testing.T) {
	coo := rmatEdges(61, 7, 4, 0)
	g, err := graphmat.New[uint32](coo, graphmat.Options{Partitions: 4, Directions: graphmat.Both})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := must(Degrees(g, graphmat.Out, graphmat.Config{Threads: 2}))
	for v := uint32(0); v < g.NumVertices(); v++ {
		if in[v] != g.InDegree(v) {
			t.Fatalf("indeg[%d] = %d, want %d", v, in[v], g.InDegree(v))
		}
	}
	out, _ := must(Degrees(g, graphmat.In, graphmat.Config{Threads: 2}))
	for v := uint32(0); v < g.NumVertices(); v++ {
		if out[v] != g.OutDegree(v) {
			t.Fatalf("outdeg[%d] = %d, want %d", v, out[v], g.OutDegree(v))
		}
	}
}

// Property: SSSP distances from the engine match Dijkstra on random graphs
// across partition counts and thread counts.
func TestQuickSSSPAgainstDijkstra(t *testing.T) {
	f := func(seed uint64) bool {
		coo := rmatEdges(seed, 6, 4, 8)
		g, err := NewSSSPGraph(coo, 3)
		if err != nil {
			t.Fatal(err)
		}
		adj := g.Adjacency()
		got, _ := must(RunSSSP(bg, g, 0, WithThreads(2)))
		want := reference.SSSP(g.NumVertices(), adj.Entries, 0)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: triangle counts match brute force on random skewed graphs.
func TestQuickTrianglesAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		coo := gen.RMAT(gen.RMATOptions{Scale: 6, EdgeFactor: 6, Seed: seed, Params: gen.RMATTriangle})
		g, err := NewTriangleGraph(coo, 3)
		if err != nil {
			t.Fatal(err)
		}
		dag := g.Adjacency()
		got, _ := must(RunTriangleCount(bg, g, WithThreads(2)))
		return got == reference.Triangles(g.NumVertices(), dag.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the sum of PageRank ranks is conserved at n on graphs with no
// sinks (every vertex has an out-edge), since rank mass only redistributes.
func TestQuickPageRankMassConservation(t *testing.T) {
	f := func(seed uint64) bool {
		n := uint32(128)
		coo := sparse.NewCOO[float32](n, n)
		rng := gen.NewRNG(seed)
		// Ring guarantees out-degree >= 1 everywhere; extra random edges.
		for v := uint32(0); v < n; v++ {
			coo.Add(v, (v+1)%n, 1)
		}
		for i := 0; i < 512; i++ {
			a, b := rng.Uint32n(n), rng.Uint32n(n)
			if a != b {
				coo.Add(a, b, 1)
			}
		}
		coo.SortRowMajor()
		coo.DedupKeepFirst()
		g, err := NewPageRankGraph(coo, 4)
		if err != nil {
			t.Fatal(err)
		}
		ranks, _ := must(RunPageRank(bg, g, WithIterations(30), WithThreads(2)))
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		return math.Abs(sum-float64(n)) < 1e-6*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// rejected reports whether a runner returned values, and its error.
func rejected[T any](out []T, _ graphmat.Stats, err error) (values bool, _ error) {
	return out != nil, err
}

// TestRunnersRejectBadSources holds the five source-parameterized runners to
// the registry's check: a source outside the graph — and, for the
// personalization set, no source at all — is an error, not a panic or a
// quietly wrong answer.
func TestRunnersRejectBadSources(t *testing.T) {
	adj := func() *graphmat.COO[float32] { return gen.Grid(gen.GridOptions{Width: 4, Height: 3, Seed: 1}) }
	bfs, _ := NewBFSGraph(adj(), 2)
	sssp, _ := NewSSSPGraph(adj(), 2)
	reach, _ := NewReachabilityGraph(adj(), 2)
	widest, _ := NewWidestPathGraph(adj(), 2)
	ppr, _ := NewPersonalizedPageRankGraph(adj(), 2)
	n := bfs.NumVertices()
	cases := map[string]func() (bool, error){
		"bfs/out_of_range":          func() (bool, error) { return rejected(RunBFS(bg, bfs, n)) },
		"sssp/out_of_range":         func() (bool, error) { return rejected(RunSSSP(bg, sssp, n)) },
		"reachability/out_of_range": func() (bool, error) { return rejected(RunReachability(bg, reach, n+7)) },
		"widest/out_of_range":       func() (bool, error) { return rejected(RunWidestPath(bg, widest, ^uint32(0))) },
		"ppr/out_of_range":          func() (bool, error) { return rejected(RunPersonalizedPageRank(bg, ppr, []uint32{1, n})) },
		"ppr/empty":                 func() (bool, error) { return rejected(RunPersonalizedPageRank(bg, ppr, nil)) },
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if values, err := run(); err == nil || values {
				t.Errorf("values returned: %v, err = %v; want no values and an error", values, err)
			}
		})
	}
	// The last valid vertex still runs.
	if _, _, err := RunBFS(bg, bfs, n-1); err != nil {
		t.Errorf("RunBFS from vertex %d: %v", n-1, err)
	}
}
