package graphmat_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphmat"
)

// fig3Edges builds the paper's Figure 3 example graph.
func fig3Edges() *graphmat.COO[float32] {
	edges := graphmat.NewCOO[float32](5)
	edges.Add(0, 1, 1)
	edges.Add(0, 2, 3)
	edges.Add(0, 3, 2)
	edges.Add(1, 2, 1)
	edges.Add(2, 3, 2)
	edges.Add(3, 4, 2)
	edges.Add(4, 0, 4)
	return edges
}

// publicSSSP is the appendix program written against the public API only.
type publicSSSP struct{}

func (publicSSSP) SendMessage(_ graphmat.VertexID, prop float32) (float32, bool) {
	return prop, true
}
func (publicSSSP) ProcessMessage(m, w float32, _ float32) float32 { return m + w }
func (publicSSSP) Reduce(a, b float32) float32                    { return min(a, b) }
func (publicSSSP) Apply(r float32, _ graphmat.VertexID, prop *float32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}
func (publicSSSP) Direction() graphmat.Direction { return graphmat.Out }

func TestPublicAPIRoundTrip(t *testing.T) {
	g, err := graphmat.New[float32](fig3Edges(), graphmat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(math.MaxFloat32)
	g.SetProp(0, 0)
	g.SetActive(0)
	stats, _ := graphmat.Run(g, publicSSSP{}, graphmat.Config{})
	want := []float32{0, 1, 2, 2, 4}
	for v, d := range want {
		if g.Prop(uint32(v)) != d {
			t.Errorf("dist[%d] = %v, want %v", v, g.Prop(uint32(v)), d)
		}
	}
	if stats.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

// TestPropsAndActive covers the paper-shaped vertex-state accessors of a
// Graph, which pair its edges with a one-column state.
func TestPropsAndActive(t *testing.T) {
	g, err := graphmat.New[float32](fig3Edges(), graphmat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAllProps(1.5)
	if g.Prop(3) != 1.5 {
		t.Error("SetAllProps failed")
	}
	g.SetProp(3, 7)
	if g.Prop(3) != 7 || g.Prop(2) != 1.5 {
		t.Error("SetProp failed")
	}
	g.InitProps(func(v uint32) float32 { return float32(v) })
	if g.Prop(4) != 4 {
		t.Error("InitProps failed")
	}
	g.SetActive(2)
	if !g.Active().Get(2) || g.Active().Get(1) {
		t.Error("SetActive failed")
	}
	g.SetAllActive()
	if g.Active().Count() != 5 {
		t.Error("SetAllActive failed")
	}
	g.ClearActive()
	if g.Active().Any() {
		t.Error("ClearActive failed")
	}
}

func TestPublicAPIAblationKnobs(t *testing.T) {
	// All three dispatches must agree (the Figure 7 configurations change
	// performance, never results).
	configs := []graphmat.Config{
		{Dispatch: graphmat.Inlined},
		{Dispatch: graphmat.Boxed},
		{Dispatch: graphmat.BoxedSorted},
	}
	for _, cfg := range configs {
		g, err := graphmat.New[float32](fig3Edges(), graphmat.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g.SetAllProps(math.MaxFloat32)
		g.SetProp(0, 0)
		g.SetActive(0)
		if _, err := graphmat.Run(g, publicSSSP{}, cfg); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if g.Prop(4) != 4 {
			t.Errorf("cfg %+v: dist[E] = %v, want 4", cfg, g.Prop(4))
		}
	}
}

// inDegree exercises the public SpMV (Figure 1).
type inDegree struct{}

func (inDegree) SendMessage(_ graphmat.VertexID, _ uint32) (uint32, bool) { return 1, true }
func (inDegree) ProcessMessage(m uint32, _ float32, _ uint32) uint32      { return m }
func (inDegree) Reduce(a, b uint32) uint32                                { return a + b }
func (inDegree) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool   { *prop = r; return false }
func (inDegree) Direction() graphmat.Direction                            { return graphmat.Out }

func TestPublicSpMVFigure1(t *testing.T) {
	edges := graphmat.NewCOO[float32](4)
	edges.Add(0, 1, 1)
	edges.Add(0, 2, 1)
	edges.Add(1, 3, 1)
	edges.Add(2, 3, 1)
	g, err := graphmat.New[uint32](edges, graphmat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := graphmat.NewVector[uint32](4)
	for v := uint32(0); v < 4; v++ {
		x.Set(v, 1)
	}
	y := graphmat.SpMV(g, x, inDegree{}, graphmat.Config{})
	for v, want := range []uint32{0, 1, 1, 2} {
		got, ok := y.GetChecked(uint32(v))
		if want == 0 && ok {
			t.Errorf("y[%d] unexpectedly present", v)
		}
		if want > 0 && (!ok || got != want) {
			t.Errorf("y[%d] = %d (%v), want %d", v, got, ok, want)
		}
	}
}

func TestPublicLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1 2.5\n1 2 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	coo, err := graphmat.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 3 || len(coo.Entries) != 2 {
		t.Errorf("loaded %d vertices %d edges", coo.NRows, len(coo.Entries))
	}
}
