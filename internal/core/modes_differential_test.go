package core

import (
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
			// AUX index must handle).
			c := sparse.NewCOO[float32](512, 512)
			for v := uint32(0); v < 64; v++ {
				c.Add(v, (v*7+1)%64, 1)
				c.Add(v, (v*13+5)%64, 3)
			}
			return c
		}, roots: []uint32{0, 100}}, // 100 is isolated: it sends, nothing receives
	}
}

// buildDiff constructs the property graph for one golden under a direction.
func buildDiff(t *testing.T, d diffGraph, dirs graph.Direction, parts int) *graph.Graph[float32, float32] {
	t.Helper()
	coo := d.coo()
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	g, err := graph.NewFromCOO[float32, float32](coo, graph.Options{Partitions: parts, Directions: dirs})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(inf)
	if d.roots == nil {
		for v := uint32(0); v < g.NumVertices(); v++ {
			g.SetProp(v, float32(v%17))
			g.SetActive(v)
		}
	} else {
		for _, r := range d.roots {
			g.SetProp(r, 0)
			g.SetActive(r)
		}
	}
	return g
}

// captureStep captures everything a superstep produced for comparison.
func captureStep[V any, M, R comparable](t *testing.T, g *graph.Graph[V, float32], ws *Workspace[M, R]) (props []V, active []uint64, yMask []uint64, yVals []R) {
	t.Helper()
	props = append(props, g.Props()...)
	active = append(active, g.Active().Words()...)
	yMask = append(yMask, ws.y.Mask().Words()...)
	// Only masked y values are meaningful; normalize the rest to zero.
	vals := ws.y.Values()
	yVals = make([]R, len(vals))
	ws.y.Iterate(func(i uint32, v R) { yVals[i] = v })
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
				g, err := graph.NewFromCOO[uint32, float32](coo, graph.Options{Partitions: 7})
				if err != nil {
					t.Fatal(err)
				}
				g.SetAllProps(^uint32(0))
				if d.roots == nil {
					for v := uint32(0); v < g.NumVertices(); v++ {
						g.SetProp(v, 0)
						g.SetActive(v)
					}
				} else {
					for _, r := range d.roots {
						g.SetProp(r, 0)
						g.SetActive(r)
					}
				}
				if _, err := Run(g, bfsProg{}, Config{Threads: 2, Mode: mode}); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = append(ref, g.Props()...)
					continue
				}
				for v := range ref {
					if g.Prop(uint32(v)) != ref[v] {
						t.Fatalf("prop[%d] %s=%d pull=%d", v, mode, g.Prop(uint32(v)), ref[v])
					}
				}
			}
		})
	}
}

// bfsFirstDir is bfsFirst scattering along dir.
type bfsFirstDir struct {
	bfsFirst
	dir graph.Direction
}

func (p bfsFirstDir) Direction() graph.Direction { return p.dir }

// TestRowWalkDirections runs the marker program along each scatter direction
// from the hub of a directed RMAT graph. Out and In both gather under Pull —
// the row walk reads whichever layers the direction names, and weighs the
// frontier by the degrees on its sending side against the unsettled by
// theirs on the receiving side — and agree with forced push. Both keeps the
// column walks: its two directions fold into one y, where a gather each
// would fold two first messages.
func TestRowWalkDirections(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 12, Seed: 5, MaxWeight: 9})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[uint32, float32](adj, graph.Options{Partitions: 4, Directions: graph.Both})
	if err != nil {
		t.Fatal(err)
	}
	hub := uint32(0)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v)+g.InDegree(v) > g.OutDegree(hub)+g.InDegree(hub) {
			hub = v
		}
	}
	for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
		run := func(mode Mode) ([]uint32, Stats) {
			g.SetAllProps(^uint32(0))
			g.SetProp(hub, 0)
			g.ClearActive()
			g.SetActive(hub)
			s, err := Run(g, bfsFirstDir{dir: dir}, Config{Mode: mode, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			return slices.Clone(g.Props()), s
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
// RunWithWorkspace so ws.y is inspectable, and asserts bit-identical
// properties, frontiers and y vectors at every superstep boundary.
func runDifferentialWS[P Program[float32, float32, float32, float32]](t *testing.T, d diffGraph, p P) {
	t.Helper()
	modes := []Mode{Pull, Push, Auto}
	dirs := p.Direction()
	graphs := make([]*graph.Graph[float32, float32], len(modes))
	wss := make([]*Workspace[float32, float32], len(modes))
	for i := range modes {
		graphs[i] = buildDiff(t, d, dirs, 5)
		wss[i] = NewWorkspace[float32, float32](int(graphs[i].NumVertices()), Bitvector)
	}
	for step := 1; step <= 64; step++ {
		converged := false
		var refProps []float32
		var refActive, refYMask []uint64
		var refYVals []float32
		for i, mode := range modes {
			cfg := Config{Threads: 3, MaxIterations: 1, Mode: mode}
			stats, err := RunWithWorkspace(graphs[i], p, cfg, wss[i])
			if err != nil {
				t.Fatalf("%s mode %s step %d: %v", d.name, mode, step, err)
			}
			props, active, yMask, yVals := captureStep(t, graphs[i], wss[i])
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

// TestChooseMode pins the two-sided Auto decision.
func TestChooseMode(t *testing.T) {
	costs := KernelCosts{TotalEdges: 10000, TotalNZCols: 4000, Partitions: 8}
	cases := []struct {
		mode        Mode
		size, edges int64
		want        Mode
		why         string
	}{
		{Pull, 1, 1, Pull, "explicit pull passes through"},
		{Push, 1 << 20, 1 << 30, Push, "explicit push passes through"},
		{Auto, 10, 100, Push, "sparse frontier pushes"},
		{Auto, 10, 5000, Pull, "edge-heavy frontier pulls (Ligra rule)"},
		{Auto, 500, 100, Pull, "wide frontier pulls (probe rule: 500*8*4 > 4000)"},
		{Auto, 0, 0, Push, "empty frontier trivially pushes"},
	}
	for _, c := range cases {
		if got := costs.Choose(c.mode, c.size, c.edges); got != c.want {
			t.Errorf("%s: Choose(%s, size=%d, edges=%d) = %s, want %s", c.why, c.mode, c.size, c.edges, got, c.want)
		}
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

// TestMultiplyNoAux runs the per-task multiply entry on a hand-assembled
// DCSC that lacks the AUX index: the push kernel must fall back to binary
// search, not panic, and still match pull bit for bit.
func TestMultiplyNoAux(t *testing.T) {
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
		multiply(mode, sparse.Layered[float32]{Base: part}, x.Mask().Words(), 0, ^uint32(0), scalarSink(ssspProg{}, x, props, y), nil, &st)
		return y
	}
	ref := run(full, Pull)
	for _, c := range []struct {
		name string
		got  *sparse.Vector[float32]
	}{
		{"push+aux", run(full, Push)},
		{"push-noaux", run(bare, Push)},
		{"pull-noaux", run(bare, Pull)},
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
