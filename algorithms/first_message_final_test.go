package algorithms

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// graphmat.FirstMessageFinal is a promise the engine acts on without being
// able to check it: a program that declares it wrongly gets wrong answers on
// exactly the supersteps that gather by rows. This file tests the promise
// instead of trusting it. Every registered algorithm is classified below —
// declares it, or does not and why — and the classification is held against
// the programs themselves, so adding the marker to a program that must not
// carry it, or registering an algorithm without deciding, fails by name.
// Each program that declares it then runs under a probe that watches every
// Apply of every superstep for a broken promise.

// firstMessageFinalTable classifies the vertex program(s) behind every
// registry name.
var firstMessageFinalTable = map[string]struct {
	programs []any
	declares bool
	why      string
}{
	"bfs":          {[]any{BFSProgram{}}, true, "level-synchronous: every message of a superstep is the current level, and no visited vertex holds a larger one"},
	"reachability": {[]any{ReachabilityProgram{}}, true, "every message is 1 and a reached vertex never changes"},
	"sssp":         {[]any{SSSPProgram{}}, false, "a vertex with a distance is improved again by any shorter path found later, and a superstep's candidate distances differ: min needs them all"},
	"widest":       {[]any{WidestPathProgram{}}, false, "as sssp, over (max, min): a wider path found later still improves a vertex"},
	"components":   {[]any{CCProgram{}}, false, "a labelled vertex keeps taking smaller labels, and a superstep's labels differ"},
	"pagerank":     {[]any{PageRankProgram{}}, false, "a sum: every message counts, every superstep, for every vertex"},
	"ppr":          {[]any{PersonalizedPageRankProgram{}}, false, "a sum, as pagerank"},
	"hits":         {[]any{hitsAuthProg{}, hitsHubProg{}}, false, "sums, as pagerank"},
	"triangles":    {[]any{tcPhase1{}, tcPhase2{}}, false, "phase 1 concatenates every neighbour id and phase 2 sums every intersection count"},
}

// declaresFirstMessageFinal reports how the table classifies a registered
// algorithm; the mode-invariance tests pick their assertions by it.
func declaresFirstMessageFinal(t testing.TB, algo string) bool {
	t.Helper()
	row, ok := firstMessageFinalTable[algo]
	if !ok {
		t.Fatalf("algorithm %q is not classified in firstMessageFinalTable", algo)
	}
	return row.declares
}

// rowWalkSlotBound mirrors the engine's Beamer ratio (core's rowWalkGain): a
// superstep gathers by rows only while its frontier's edge work times this
// exceeds the edge slots of the unsettled rows, which is all a row walk can
// examine.
const rowWalkSlotBound = 14

// sameTallies is the mode-invariance assertion on engine work, stated per
// program class. A program without FirstMessageFinal does the same work under
// every traversal: Iterations, MessagesSent, ActiveSum, EdgesProcessed and
// Applies all equal the reference's, and it never runs the row walk. One that
// declares it — bfs, reachability — keeps Iterations, MessagesSent and
// ActiveSum; with no row-walk superstep on either side the work tallies are
// equal too. Against an all-edges reference (forced push, the boxed oracle,
// or a run that never gathered) a run that did gather applies no more values
// — only unsettled vertices receive one — and examines at most
// rowWalkSlotBound slots per edge the reference folded: on a skewed graph far
// fewer (TestRowWalkScope), on a ring of degree four up to twice as many,
// each a bit test where the reference paid a fold.
func sameTallies(t *testing.T, what, algo string, ref, got graphmat.Stats) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.MessagesSent != ref.MessagesSent || got.ActiveSum != ref.ActiveSum {
		t.Errorf("%s: supersteps, messages or frontier sizes diverge: %+v vs %+v", what, got, ref)
	}
	if !declaresFirstMessageFinal(t, algo) {
		if got.RowSupersteps != 0 {
			t.Errorf("%s: a program without FirstMessageFinal ran %d row-walk supersteps", what, got.RowSupersteps)
		}
		if got.EdgesProcessed != ref.EdgesProcessed || got.Applies != ref.Applies {
			t.Errorf("%s: work tallies diverge: %+v vs %+v", what, got, ref)
		}
		return
	}
	if got.RowSupersteps == 0 && ref.RowSupersteps == 0 && (got.EdgesProcessed != ref.EdgesProcessed || got.Applies != ref.Applies) {
		t.Errorf("%s: no row-walk superstep on either side, yet the work tallies diverge: %+v vs %+v", what, got, ref)
	}
	if ref.RowSupersteps == 0 && (got.EdgesProcessed > rowWalkSlotBound*ref.EdgesProcessed || got.Applies > ref.Applies) {
		t.Errorf("%s: more work than the row walk's bound on the all-edges reference allows: %+v vs %+v", what, got, ref)
	}
}

func TestFirstMessageFinalClassification(t *testing.T) {
	names := Names()
	for _, name := range names {
		row, ok := firstMessageFinalTable[name]
		if !ok {
			t.Errorf("registered algorithm %q is not classified: does its program keep the FirstMessageFinal promise?", name)
			continue
		}
		if row.why == "" {
			t.Errorf("%s: the classification gives no reason", name)
		}
		for _, p := range row.programs {
			_, has := reflect.TypeOf(p).MethodByName("Unsettled")
			switch {
			case has && !row.declares:
				t.Errorf("%s: %T declares FirstMessageFinal but must not: %s", name, p, row.why)
			case !has && row.declares:
				t.Errorf("%s: %T lost its FirstMessageFinal declaration (%s)", name, p, row.why)
			}
		}
	}
	for name := range firstMessageFinalTable {
		if !slices.Contains(names, name) {
			t.Errorf("firstMessageFinalTable classifies %q, which is not registered", name)
		}
	}
}

// firstOf pairs a running reduction with the first value folded into it.
type firstOf[R any] struct{ first, all R }

// promiseProbe runs program P with its promise under watch. The reduction
// carries the first folded result beside the real one — the scalar fold
// stores a destination's first result raw and calls Reduce(accumulated, next)
// after that, and the block fold does the same per column, so first survives
// every fold — and Apply checks both halves of the promise on every vertex,
// and in a block run every (vertex, column), that receives a value. Of P's
// markers the probe passes on only DstIndependent, which the block engine
// requires: run under forced push it folds every frontier edge, which is the
// behaviour the row walk's shortcut, scalar or k-wide, has to be equivalent
// to.
type promiseProbe[V, R comparable, M any, P interface {
	graphmat.Program[V, float32, M, R]
	graphmat.DstIndependent
	graphmat.FirstMessageFinal[V]
}] struct {
	// t takes the broken promises: a *testing.T, or a recorder when the
	// probe itself is under test.
	t interface {
		Errorf(format string, args ...any)
	}
	p P
}

func (pp promiseProbe[V, R, M, P]) SendMessage(v graphmat.VertexID, prop V) (M, bool) {
	return pp.p.SendMessage(v, prop)
}

func (pp promiseProbe[V, R, M, P]) ProcessMessage(m M, e float32, dst V) firstOf[R] {
	r := pp.p.ProcessMessage(m, e, dst)
	return firstOf[R]{r, r}
}

func (pp promiseProbe[V, R, M, P]) Reduce(a, b firstOf[R]) firstOf[R] {
	return firstOf[R]{a.first, pp.p.Reduce(a.all, b.all)}
}

func (pp promiseProbe[V, R, M, P]) ProcessIgnoresDst() {}

func (pp promiseProbe[V, R, M, P]) Apply(r firstOf[R], v graphmat.VertexID, prop *V) bool {
	before := *prop
	unsettled := pp.p.Unsettled(before)
	activate := pp.p.Apply(r.all, v, prop)
	switch {
	case !unsettled && (activate || *prop != before):
		pp.t.Errorf("mask broken at vertex %d: settled with %v, Apply(%v) returned %v and left %v", v, before, r.all, activate, *prop)
	case unsettled && r.all != r.first:
		pp.t.Errorf("first message not final at unsettled vertex %d: first folded %v, all reduce to %v", v, r.first, r.all)
	}
	return activate
}

func (pp promiseProbe[V, R, M, P]) Direction() graphmat.Direction { return pp.p.Direction() }

// probePromise runs p from each root under the probe, forced onto the push
// walk — through the scalar engine one root at a time, then through the block
// engine with every root a column of one batch, which since the k-wide gather
// depends on the promise as much — and holds each result to want's. A
// traversal starts with unreached at every vertex but the root, which holds
// source.
func probePromise[P interface {
	graphmat.Program[uint32, float32, uint32, uint32]
	graphmat.DstIndependent
	graphmat.FirstMessageFinal[uint32]
}](t *testing.T, p P, g *graphmat.Graph[uint32, float32], roots []uint32, unreached, source uint32, want func(root uint32) []uint32) {
	t.Helper()
	ctx := context.Background()
	cfg := graphmat.Config{Mode: graphmat.Push, Threads: 2}
	probe := promiseProbe[uint32, uint32, uint32, P]{t, p}
	expect := make([][]uint32, len(roots))
	for i, root := range roots {
		expect[i] = want(root)
		g.SetAllProps(unreached)
		g.SetProp(root, source)
		g.ClearActive()
		g.SetActive(root)
		stats, err := graphmat.RunContext[uint32, float32, uint32, firstOf[uint32]](ctx, g, probe, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Applies == 0 || stats.RowSupersteps != 0 {
			t.Fatalf("root %d: the probe run applied %d values and took %d row-walk supersteps", root, stats.Applies, stats.RowSupersteps)
		}
		if !slices.Equal(g.Props(), expect[i]) {
			t.Errorf("root %d: the probed run's result differs from the algorithm's", root)
		}
	}
	st := graphmat.NewBlockState[uint32](int(g.NumVertices()), len(roots))
	st.SetAllProps(unreached)
	for s, root := range roots {
		st.SetProp(root, s, source)
		st.Activate(root, s)
	}
	stats, err := graphmat.RunBlockContext[uint32, float32, uint32, firstOf[uint32]](ctx, g, probe, st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applies == 0 || stats.RowSupersteps != 0 {
		t.Fatalf("the probed batch applied %d values and took %d row-walk supersteps", stats.Applies, stats.RowSupersteps)
	}
	for s, col := range st.Columns() {
		if !slices.Equal(col, expect[s]) {
			t.Errorf("root %d: the probed batch's column differs from the algorithm's result", roots[s])
		}
	}
}

// TestFirstMessageFinalPromise holds every program that declares the marker
// to it, superstep by superstep, on a skewed graph (RMAT: dense middle
// supersteps, many messages per vertex) and a flat one (a grid: a thousand
// thin supersteps), from several roots each.
func TestFirstMessageFinalPromise(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]func() *graphmat.COO[float32]{
		"rmat": func() *graphmat.COO[float32] {
			return gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 12, Seed: 7, MaxWeight: 9})
		},
		"grid": func() *graphmat.COO[float32] { return gen.Grid(gen.GridOptions{Width: 40, Height: 30, Seed: 3}) },
	}
	checked := map[string]bool{}
	for gname, build := range graphs {
		t.Run("bfs/"+gname, func(t *testing.T) {
			checked["bfs"] = true
			g, err := NewBFSGraph(build(), 5)
			if err != nil {
				t.Fatal(err)
			}
			probePromise(t, BFSProgram{}, g, []uint32{0, 1, 7, 600}, Unreached, 0,
				func(root uint32) []uint32 {
					dist, _, err := RunBFS(ctx, g, root)
					if err != nil {
						t.Fatal(err)
					}
					return dist
				})
		})
		t.Run("reachability/"+gname, func(t *testing.T) {
			checked["reachability"] = true
			g, err := NewReachabilityGraph(build(), 5)
			if err != nil {
				t.Fatal(err)
			}
			probePromise(t, ReachabilityProgram{}, g, []uint32{0, 1, 7, 600}, 0, 1,
				func(root uint32) []uint32 {
					reached, _, err := RunReachability(ctx, g, root)
					if err != nil {
						t.Fatal(err)
					}
					return reached
				})
		})
	}
	for name, row := range firstMessageFinalTable {
		if row.declares && !checked[name] {
			t.Errorf("%s declares FirstMessageFinal but no probe run checks it", name)
		}
	}
}

// ccMarked is connected components wrongly declaring FirstMessageFinal: a
// labelled vertex keeps taking smaller labels (the mask half) and a
// superstep's labels differ (the first-message half), whatever Unsettled
// says — here, that an even label still waits.
type ccMarked struct{ CCProgram }

func (ccMarked) Unsettled(prop uint32) bool { return prop%2 == 0 }

// brokenPromises counts what a promiseProbe reports, from every worker's
// Applies at once.
type brokenPromises struct{ mask, first atomic.Int64 }

func (b *brokenPromises) Errorf(format string, _ ...any) {
	if strings.HasPrefix(format, "mask broken") {
		b.mask.Add(1)
	} else {
		b.first.Add(1)
	}
}

// TestPromiseProbeCatchesBrokenPromise turns the probe on a program that
// breaks the promise: both halves must be reported, by the scalar engine's
// Applies and by the block engine's per-column ones — a probe that cannot
// fail proves nothing about the programs that pass it.
func TestPromiseProbeCatchesBrokenPromise(t *testing.T) {
	g, err := NewCCGraph(gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 7, MaxWeight: 9}), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := graphmat.Config{Mode: graphmat.Push, Threads: 2}

	var scalar brokenPromises
	g.InitProps(func(v uint32) uint32 { return v })
	g.SetAllActive()
	probe := promiseProbe[uint32, uint32, uint32, ccMarked]{&scalar, ccMarked{}}
	if _, err := graphmat.RunContext[uint32, float32, uint32, firstOf[uint32]](ctx, g, probe, cfg, nil); err != nil {
		t.Fatal(err)
	}
	mask, first := scalar.mask.Load(), scalar.first.Load()
	if mask == 0 || first == 0 {
		t.Errorf("scalar run: the probe reported %d mask and %d first-message breaks of a program that keeps neither half", mask, first)
	}

	var block brokenPromises
	const k = 3
	st := graphmat.NewBlockState[uint32](int(g.NumVertices()), k)
	st.InitProps(func(v uint32, _ int) uint32 { return v })
	st.ActivateAllMask(fullMask(k))
	probe.t = &block
	if _, err := graphmat.RunBlockContext[uint32, float32, uint32, firstOf[uint32]](ctx, g, probe, st, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if bm, bf := block.mask.Load(), block.first.Load(); bm != k*mask || bf != k*first {
		t.Errorf("block run of %d identical columns: the probe reported %d mask and %d first-message breaks, want %d times the scalar run's %d and %d",
			k, bm, bf, k, mask, first)
	}
}
