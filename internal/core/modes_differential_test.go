package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// This file is the kernel-layer differential suite: push, pull and auto must
// be indistinguishable — bit-identical vertex properties, active frontiers
// and per-superstep y vectors — on every graph shape and direction. The
// engine is driven one superstep at a time so the comparison happens at
// every superstep boundary, not just at convergence.

// inDir and bothDir wrap ssspProg with the other scatter directions so the
// In and Both code paths run under the differential.
type inDir struct{ ssspProg }

func (inDir) Direction() graph.Direction { return graph.In }

type bothDir struct{ ssspProg }

func (bothDir) Direction() graph.Direction { return graph.Both }

// bfsProg is hop counting (a DstIndependent program, exercising the
// fast path in both kernels).
type bfsProg struct{}

func (bfsProg) SendMessage(v VertexID, prop uint32) (uint32, bool)  { return prop, true }
func (bfsProg) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m + 1 }
func (bfsProg) Reduce(a, b uint32) uint32                           { return min(a, b) }
func (bfsProg) Apply(r uint32, _ VertexID, prop *uint32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}
func (bfsProg) Direction() graph.Direction { return graph.Out }
func (bfsProg) ProcessIgnoresDst()         {}

// diffGraph describes one adversarial golden of the suite.
type diffGraph struct {
	name string
	coo  func() *sparse.COO[float32]
	// roots activates these vertices initially; nil means all (full
	// frontier).
	roots []uint32
}

func diffGraphs() []diffGraph {
	return []diffGraph{
		{name: "rmat", coo: func() *sparse.COO[float32] {
			c := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11, MaxWeight: 9})
			return c
		}, roots: []uint32{0}},
		{name: "rmat_full_frontier", coo: func() *sparse.COO[float32] {
			return gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 3, MaxWeight: 5})
		}, roots: nil},
		{name: "empty_frontier", coo: func() *sparse.COO[float32] {
			return gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 4, Seed: 5, MaxWeight: 5})
		}, roots: []uint32{}},
		{name: "self_loops", coo: func() *sparse.COO[float32] {
			c := sparse.NewCOO[float32](128, 128)
			for v := uint32(0); v < 128; v++ {
				c.Add(v, v, 1) // every vertex loops onto itself
				c.Add(v, (v+1)%128, 2)
			}
			return c
		}, roots: []uint32{0, 64}},
		{name: "isolated_vertices", coo: func() *sparse.COO[float32] {
			// Edges only among the first 64 of 512 vertices; the rest are
			// isolated (empty columns everywhere — the hypersparse case the
			// column index must handle).
			c := sparse.NewCOO[float32](512, 512)
			for v := uint32(0); v < 64; v++ {
				c.Add(v, (v*7+1)%64, 1)
				c.Add(v, (v*13+5)%64, 3)
			}
			return c
		}, roots: []uint32{0, 100}}, // 100 is isolated: it sends, nothing receives
	}
}

// buildDiff constructs the graph for one golden under a direction, with the
// golden's starting state.
func buildDiff(t *testing.T, d diffGraph, dirs graph.Direction, parts int) (*graph.Graph[float32], *BlockState[float32]) {
	t.Helper()
	coo := d.coo()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	g, err := graph.NewFromCOO[float32](coo, graph.Options{Partitions: parts, Directions: dirs})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockState[float32](int(g.NumVertices()), 1)
	st.SetAllProps(inf)
	if d.roots == nil {
		for v := uint32(0); v < g.NumVertices(); v++ {
			st.SetProp(v, 0, float32(v%17))
			st.Activate(v, 0)
		}
	} else {
		for _, r := range d.roots {
			st.SetProp(r, 0, 0)
			st.Activate(r, 0)
		}
	}
	return g, st
}

// captureStep captures everything a superstep produced for comparison.
func captureStep[V any, M, R comparable](t *testing.T, st *BlockState[V], ws *Workspace[M, R]) (props []V, active []uint64, yMask []uint64, yVals []R) {
	t.Helper()
	props = append(props, st.Props()...)
	active = append(active, st.Active().Words()...)
	yMask = append(yMask, ws.y.scalar.Mask().Words()...)
	// Only masked y values are meaningful; normalize the rest to zero.
	vals := ws.y.scalar.Values()
	yVals = make([]R, len(vals))
	ws.y.scalar.Iterate(func(i uint32, v R) { yVals[i] = v })
	return
}

// Compile-time assertions that the test programs implement the contract.
var (
	_ Program[float32, float32, float32, float32] = ssspProg{}
	_ Program[float32, float32, float32, float32] = inDir{}
	_ Program[float32, float32, float32, float32] = bothDir{}
)

func TestModesDifferentialSSSP(t *testing.T) {
	for _, d := range diffGraphs() {
		t.Run(d.name, func(t *testing.T) {
			runDifferentialWS(t, d, ssspProg{})
		})
	}
}

func TestModesDifferentialDirectionIn(t *testing.T) {
	for _, d := range diffGraphs() {
		t.Run(d.name, func(t *testing.T) {
			runDifferentialWS(t, d, inDir{})
		})
	}
}

func TestModesDifferentialDirectionBoth(t *testing.T) {
	for _, d := range diffGraphs() {
		t.Run(d.name, func(t *testing.T) {
			runDifferentialWS(t, d, bothDir{})
		})
	}
}

// TestModesDifferentialBFSFastPath runs the DstIndependent kernel variant
// (uint32 payloads) across modes on the goldens.
func TestModesDifferentialBFSFastPath(t *testing.T) {
	for _, d := range diffGraphs() {
		t.Run(d.name, func(t *testing.T) {
			modes := []Mode{Pull, Push, Auto}
			var ref []uint32
			for _, mode := range modes {
				coo := d.coo()
				coo.SortRowMajor()
				coo.DedupKeepFirst()
				g, err := graph.NewFromCOO[float32](coo, graph.Options{Partitions: 7})
				if err != nil {
					t.Fatal(err)
				}
				st := NewBlockState[uint32](int(g.NumVertices()), 1)
				st.SetAllProps(^uint32(0))
				if d.roots == nil {
					for v := uint32(0); v < g.NumVertices(); v++ {
						st.SetProp(v, 0, 0)
						st.Activate(v, 0)
					}
				} else {
					for _, r := range d.roots {
						st.SetProp(r, 0, 0)
						st.Activate(r, 0)
					}
				}
				if _, err := Run(g, bfsProg{}, st, Config{Threads: 2, Mode: mode}); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = append(ref, st.Props()...)
					continue
				}
				for v := range ref {
					if st.Prop(uint32(v), 0) != ref[v] {
						t.Fatalf("prop[%d] %s=%d pull=%d", v, mode, st.Prop(uint32(v), 0), ref[v])
					}
				}
			}
		})
	}
}

// bfsBooleanDir is bfsBoolean scattering along dir.
type bfsBooleanDir struct {
	bfsBoolean
	dir graph.Direction
}

func (p bfsBooleanDir) Direction() graph.Direction { return p.dir }

// TestRowWalkDirections runs the row-walking program along each scatter direction
// from the hub of a directed RMAT graph. Out and In both gather under Pull —
// the row walk reads whichever layers the direction names, and weighs the
// frontier by the degrees on its sending side against the unsettled by
// theirs on the receiving side — and agree with forced push. Both keeps the
// column walks: its two directions fold into one y, where a gather each
// would fold two first messages.
func TestRowWalkDirections(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 12, Seed: 5, MaxWeight: 9})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 4, Directions: graph.Both})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockState[uint32](int(g.NumVertices()), 1)
	hub := uint32(0)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v)+g.InDegree(v) > g.OutDegree(hub)+g.InDegree(hub) {
			hub = v
		}
	}
	for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
		run := func(mode Mode) ([]uint32, Stats) {
			st.SetAllProps(^uint32(0))
			st.SetProp(hub, 0, 0)
			st.ClearActive()
			st.Activate(hub, 0)
			s, err := Run(g, bfsBooleanDir{dir: dir}, st, Config{Mode: mode, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			return slices.Clone(st.Props()), s
		}
		want, push := run(Push)
		got, pull := run(Pull)
		if !slices.Equal(got, want) {
			t.Errorf("direction %v: pull and push distances differ", dir)
		}
		if push.RowSupersteps != 0 || (pull.RowSupersteps != 0) != (dir != graph.Both) {
			t.Errorf("direction %v: %d row-walk supersteps under push, %d under pull", dir, push.RowSupersteps, pull.RowSupersteps)
		}
		if dir == graph.Both && (pull.EdgesProcessed != push.EdgesProcessed || pull.Applies != push.Applies) {
			t.Errorf("direction both: the column walks' tallies differ: pull %+v, push %+v", pull, push)
		}
	}
}

// runDifferentialWS drives one (program, graph) pair superstep-by-superstep
// (MaxIterations=1 per call) under pull, push and auto, through
// RunContext so ws.y is inspectable, and asserts bit-identical
// properties, frontiers and y vectors at every superstep boundary.
func runDifferentialWS[P Program[float32, float32, float32, float32]](t *testing.T, d diffGraph, p P) {
	t.Helper()
	modes := []Mode{Pull, Push, Auto}
	dirs := p.Direction()
	graphs := make([]*graph.Graph[float32], len(modes))
	states := make([]*BlockState[float32], len(modes))
	wss := make([]*Workspace[float32, float32], len(modes))
	for i := range modes {
		graphs[i], states[i] = buildDiff(t, d, dirs, 5)
		wss[i] = NewWorkspace[float32, float32](int(graphs[i].NumVertices()), Bitvector)
	}
	for step := 1; step <= 64; step++ {
		converged := false
		var refProps []float32
		var refActive, refYMask []uint64
		var refYVals []float32
		for i, mode := range modes {
			cfg := Config{Threads: 3, MaxIterations: 1, Mode: mode}
			stats, err := RunContext(context.Background(), graphs[i], p, states[i], cfg, wss[i])
			if err != nil {
				t.Fatalf("%s mode %s step %d: %v", d.name, mode, step, err)
			}
			props, active, yMask, yVals := captureStep(t, states[i], wss[i])
			if i == 0 {
				refProps, refActive, refYMask, refYVals = props, active, yMask, yVals
				converged = stats.Reason == Converged
				continue
			}
			for v := range refProps {
				if props[v] != refProps[v] {
					t.Fatalf("%s step %d: prop[%d] %s=%v pull=%v", d.name, step, v, mode, props[v], refProps[v])
				}
			}
			for w := range refActive {
				if active[w] != refActive[w] {
					t.Fatalf("%s step %d: frontier word %d differs under %s", d.name, step, w, mode)
				}
			}
			for w := range refYMask {
				if yMask[w] != refYMask[w] {
					t.Fatalf("%s step %d: y mask word %d differs under %s", d.name, step, w, mode)
				}
			}
			for v := range refYVals {
				if yVals[v] != refYVals[v] {
					t.Fatalf("%s step %d: y[%d] %s=%v pull=%v", d.name, step, v, mode, yVals[v], refYVals[v])
				}
			}
		}
		if converged {
			return
		}
	}
}

// TestChooseMode pins the two-sided Auto decision over the structure's reach.
// A spanning structure — every one of 8 partitions stores columns across the
// whole id range, as on a permuted RMAT graph — bills a push lookup in all 8
// and decides as the partition-count rule did; a banded one (reach 1.04, a
// grid's row partitions) pushes frontiers that rule sent to the sweep, and
// still pulls once even one lookup per vertex outbids the sweep.
func TestChooseMode(t *testing.T) {
	spanning := KernelCosts{TotalEdges: 10000, TotalNZCols: 4000, Reach: 8}
	banded := KernelCosts{TotalEdges: 10000, TotalNZCols: 4000, Reach: 1.04}
	cases := []struct {
		costs       KernelCosts
		mode        Mode
		size, edges int64
		want        Mode
		why         string
	}{
		{spanning, Pull, 1, 1, Pull, "explicit pull passes through"},
		{spanning, Push, 1 << 20, 1 << 30, Push, "explicit push passes through"},
		{spanning, Auto, 10, 100, Push, "sparse frontier pushes"},
		{spanning, Auto, 10, 5000, Pull, "edge-heavy frontier pulls (Ligra rule)"},
		{spanning, Auto, 500, 100, Pull, "wide frontier pulls (probe rule: 500*8*4 > 4000)"},
		{spanning, Auto, 125, 100, Push, "tie pushes (probe rule: 125*8*4 = 4000)"},
		{spanning, Auto, 0, 0, Push, "empty frontier trivially pushes"},
		{banded, Pull, 1, 1, Pull, "explicit pull passes through a banded structure"},
		{banded, Auto, 500, 100, Push, "banded: the wide frontier pushes (500*1.04*4 = 2080 <= 4000)"},
		{banded, Auto, 962, 100, Pull, "banded: probe rule still binds (962*1.04*4 > 4000)"},
		{banded, Auto, 10, 5000, Pull, "banded: edge-heavy frontier pulls (Ligra rule)"},
	}
	for _, c := range cases {
		if got := c.costs.Choose(c.mode, c.size, c.edges); got != c.want {
			t.Errorf("%s: Choose(%s, size=%d, edges=%d) with reach %v = %s, want %s", c.why, c.mode, c.size, c.edges, c.costs.Reach, got, c.want)
		}
	}
}

// TestPlanRunReach pins the reach planRun measures for the probe rule: about
// one partition per vertex on a grid, whose row partitions each store a band
// of source columns, and exactly the partition count on a permuted RMAT
// graph, whose partitions each store columns across the whole id range — so
// every Auto decision on RMAT is the one the partition-count rule made.
func TestPlanRunReach(t *testing.T) {
	reach := func(adj *sparse.COO[float32], parts int) float64 {
		g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		return planRun(g, graph.Out, Config{Mode: Auto, Threads: 2}, false).costs.Reach
	}
	if r := reach(gen.Grid(gen.GridOptions{Width: 256, Height: 256, Seed: 5}), 8); r >= 1.1 || r < 1 {
		t.Errorf("grid: reach %v, want in [1, 1.1)", r)
	}
	for _, parts := range []int{2, 16} {
		adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 16, Seed: 17, MaxWeight: 31})
		if r := reach(adj, parts); r != float64(parts) {
			t.Errorf("rmat, %d partitions: reach %v, want exactly %d", parts, r, parts)
		}
	}
}

// TestAutoPushesGridSSSP is the reach rule's reason to exist: SSSP on a grid
// never has a frontier wide enough to pay for sweeping every column, so
// Auto pushes every superstep and probes exactly what forced Push probes.
// Billing a push lookup in every one of the 32 partitions, Auto used to send
// 40 of the wave's 129 supersteps to the sweep. (Weights up to 2 keep the
// wave thin: with the generator's default of 10, a grid this small fills
// more than a twentieth of its edges per superstep and the edge rule pulls.)
func TestAutoPushesGridSSSP(t *testing.T) {
	adj := gen.Grid(gen.GridOptions{Width: 128, Height: 128, Seed: 5, MaxWeight: 2})
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 32})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockState[float32](int(g.NumVertices()), 1)
	run := func(mode Mode) Stats {
		src := uint32(64*128 + 64)
		st.SetAllProps(inf)
		st.SetProp(src, 0, 0)
		st.ClearActive()
		st.Activate(src, 0)
		stats, err := Run(g, ssspProg{}, st, Config{Mode: mode, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	push, auto := run(Push), run(Auto)
	if auto.PullSupersteps != 0 || auto.PushSupersteps != push.PushSupersteps {
		t.Errorf("auto took %d push and %d pull supersteps, want forced push's %d and 0", auto.PushSupersteps, auto.PullSupersteps, push.PushSupersteps)
	}
	if auto.ColumnsProbed != push.ColumnsProbed {
		t.Errorf("auto probed %d columns, forced push %d", auto.ColumnsProbed, push.ColumnsProbed)
	}
}

// TestModeJSONRoundTrip pins the wire names of Mode.
func TestModeJSONRoundTrip(t *testing.T) {
	for _, m := range []Mode{Auto, Pull, Push} {
		b, err := m.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Mode
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("round trip %s -> %s", m, back)
		}
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
	m, err := ParseMode("")
	if err != nil || m != Auto {
		t.Errorf("empty mode = (%v, %v), want Auto", m, err)
	}
	if s := fmt.Sprintf("%s/%s/%s", Auto, Pull, Push); s != "auto/pull/push" {
		t.Errorf("mode names: %s", s)
	}
}

// TestMultiplyBareLiteral runs the per-task multiply entry on a
// hand-assembled DCSC literal with no derived view built: the push kernel
// must build its column index itself, not panic, and still match pull bit
// for bit.
func TestMultiplyBareLiteral(t *testing.T) {
	coo := gen.RMAT(gen.RMATOptions{Scale: 7, EdgeFactor: 4, Seed: 2, MaxWeight: 9})
	coo.SortColMajor()
	coo.DedupKeepFirst()
	full := sparse.BuildDCSC(coo, 0, coo.NRows)
	bare := &sparse.DCSC[float32]{
		NRows: full.NRows, NCols: full.NCols,
		JC: full.JC, CP: full.CP, IR: full.IR, Val: full.Val,
		RowLo: full.RowLo, RowHi: full.RowHi,
	}
	n := int(coo.NRows)
	props := make([]float32, n)
	x := sparse.NewVector[float32](n)
	for v := uint32(0); v < uint32(n); v += 3 {
		x.Set(v, float32(v))
	}
	run := func(part *sparse.DCSC[float32], mode Mode) *sparse.Vector[float32] {
		y := sparse.NewVector[float32](n)
		var st localStats
		multiply(mode, sparse.Layered[float32]{Base: part}, x.Mask().Words(), scalarSink(ssspProg{}, x, props, y), nil, &st)
		return y
	}
	ref := run(full, Pull)
	for _, c := range []struct {
		name string
		got  *sparse.Vector[float32]
	}{
		{"push-built", run(full, Push)},
		{"push-bare", run(bare, Push)},
		{"pull-bare", run(bare, Pull)},
	} {
		for v := uint32(0); v < uint32(n); v++ {
			rv, rok := ref.GetChecked(v)
			gv, gok := c.got.GetChecked(v)
			if rok != gok || (rok && rv != gv) {
				t.Fatalf("%s: y[%d] = (%v,%v), want (%v,%v)", c.name, v, gv, gok, rv, rok)
			}
		}
	}
}
