package core

import (
	"fmt"
	"math"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// The float32 path-semiring fast paths (MinPlusFoldF32 / MaxMinFoldF32) make
// the same promise SumFoldF64 does: the fused column fold must be
// bit-identical to the generic callback loop. These tests run marked
// programs against their unmarked twins — same fold, forced down the
// generic path — across modes, threads, both engines, and plain versus
// overlay (base+delta) partitions.

// ssspFused is ssspProg plus the (min, +) marker: the kernels must take the
// fused float32 fold and produce identical bits.
type ssspFused struct{ ssspProg }

func (ssspFused) ProcessIgnoresDst()   {}
func (ssspFused) ReducesByMinPlusF32() {}

// widestProg is the (max, min) bottleneck-path program, generic path.
type widestProg struct{}

func (widestProg) SendMessage(v VertexID, prop float32) (float32, bool) { return prop, true }
func (widestProg) ProcessMessage(m, e float32, _ float32) float32       { return min(m, e) }
func (widestProg) Reduce(a, b float32) float32                          { return max(a, b) }
func (widestProg) Apply(r float32, _ VertexID, prop *float32) bool {
	if r > *prop {
		*prop = r
		return true
	}
	return false
}
func (widestProg) Direction() graph.Direction { return graph.Out }

// widestFused is widestProg plus the (max, min) marker.
type widestFused struct{ widestProg }

func (widestFused) ProcessIgnoresDst()  {}
func (widestFused) ReducesByMaxMinF32() {}

func f32ParityGraph(t testing.TB, seed uint64, nparts int) *graph.Graph[float32, float32] {
	t.Helper()
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: seed, MaxWeight: 31})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32, float32](adj, graph.Options{Partitions: nparts})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// f32ParityOverlay is f32ParityGraph's edge set served from a store with a
// pending overlay holding every delta shape the walks distinguish: a
// re-weighted edge (override of a base column), a vertex whose every
// out-edge is deleted (a whole-column tombstone), and first edges out of a
// sink vertex (a delta-only column). The fused folds must read all three
// exactly as the generic loop does. The pinned snapshot is released with
// the test.
func f32ParityOverlay(t testing.TB, seed uint64, nparts int) *graph.Snapshot[float32, float32] {
	t.Helper()
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: seed, MaxWeight: 31})
	adj.RemoveSelfLoops()
	adj.SortRowMajor()
	adj.DedupKeepFirst()
	n := adj.NRows
	outDeg := make([]int, n)
	for _, e := range adj.Entries {
		outDeg[e.Row]++
	}
	// A reachable, mid-degree vertex to silence, and a sink to give edges.
	doomed, sink := ^uint32(0), ^uint32(0)
	for v := uint32(1); v < n; v++ {
		if doomed == ^uint32(0) && outDeg[v] >= 3 {
			doomed = v
		}
		if sink == ^uint32(0) && outDeg[v] == 0 {
			sink = v
		}
	}
	if doomed == ^uint32(0) || sink == ^uint32(0) {
		t.Fatal("fixture: no vertex to tombstone or no sink vertex")
	}
	first := adj.Entries[0]
	batch := []graph.Update[float32]{
		{Src: first.Row, Dst: first.Col, Val: first.Val + 7},
		{Src: sink, Dst: 0, Val: 2},
		{Src: sink, Dst: n - 1, Val: 5},
		{Src: 0, Dst: sink, Val: 1}, // make the new column reachable from the source
	}
	for _, e := range adj.Entries {
		if e.Row == doomed {
			batch = append(batch, graph.Update[float32]{Src: e.Row, Dst: e.Col, Del: true})
		}
	}
	store, err := graph.NewStore[float32, float32](adj, graph.Options{Partitions: nparts, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	snap := store.Acquire()
	t.Cleanup(snap.Release)
	tombstones, deltaOnly := 0, 0
	for _, l := range snap.Graph().OutLayers() {
		if l.Delta == nil {
			continue
		}
		for ci, j := range l.Delta.JC {
			if _, inBase := l.Base.FindColumn(j); !inBase {
				deltaOnly++
			} else if l.Delta.CP[ci] == l.Delta.CP[ci+1] {
				tombstones++
			}
		}
	}
	if tombstones == 0 || deltaOnly == 0 {
		t.Fatalf("fixture is vacuous: %d tombstones, %d delta-only columns", tombstones, deltaOnly)
	}
	return snap
}

func runF32Prog[P Program[float32, float32, float32, float32]](
	t *testing.T, g *graph.Graph[float32, float32], p P, cfg Config, init float32, src uint32, srcVal float32,
) []float32 {
	t.Helper()
	g.SetAllProps(init)
	g.SetProp(src, srcVal)
	g.ClearActive()
	g.SetActive(src)
	if _, err := Run(g, p, cfg); err != nil {
		t.Fatal(err)
	}
	props := make([]float32, g.NumVertices())
	copy(props, g.Props())
	return props
}

// f32ParityWorlds is the plain build and its overlay twin.
func f32ParityWorlds(t testing.TB, seed uint64, nparts int) map[string]*graph.Graph[float32, float32] {
	return map[string]*graph.Graph[float32, float32]{
		"plain":   f32ParityGraph(t, seed, nparts),
		"overlay": f32ParityOverlay(t, seed, nparts).View(),
	}
}

func TestF32FoldFastPathParityScalarEngine(t *testing.T) {
	for world, g := range f32ParityWorlds(t, 11, 4) {
		testF32FoldParityScalar(t, world, g)
	}
}

func testF32FoldParityScalar(t *testing.T, world string, g *graph.Graph[float32, float32]) {
	for _, mode := range []Mode{Pull, Push, Auto} {
		for _, threads := range []int{1, 3} {
			cfg := Config{Mode: mode, Threads: threads}
			t.Run(fmt.Sprintf("%s/sssp/mode_%s_threads_%d", world, mode, threads), func(t *testing.T) {
				ref := runF32Prog(t, g, ssspProg{}, cfg, inf, 0, 0)
				got := runF32Prog(t, g, ssspFused{}, cfg, inf, 0, 0)
				for v := range ref {
					if math.Float32bits(got[v]) != math.Float32bits(ref[v]) {
						t.Fatalf("dist[%d] = %v (%x), generic %v (%x)", v,
							got[v], math.Float32bits(got[v]), ref[v], math.Float32bits(ref[v]))
					}
				}
			})
			t.Run(fmt.Sprintf("%s/widest/mode_%s_threads_%d", world, mode, threads), func(t *testing.T) {
				ref := runF32Prog(t, g, widestProg{}, cfg, 0, 0, float32(math.MaxFloat32))
				got := runF32Prog(t, g, widestFused{}, cfg, 0, 0, float32(math.MaxFloat32))
				for v := range ref {
					if math.Float32bits(got[v]) != math.Float32bits(ref[v]) {
						t.Fatalf("width[%d] = %v (%x), generic %v (%x)", v,
							got[v], math.Float32bits(got[v]), ref[v], math.Float32bits(ref[v]))
					}
				}
			})
		}
	}
}

// ssspBlockFused is the block SSSP program plus the fused marker; the block
// oracle is the unmarked ssspBlockProg.
type ssspBlockFused struct{ ssspBlockProg }

func (ssspBlockFused) ReducesByMinPlusF32() {}

func TestF32FoldFastPathParityBlockEngine(t *testing.T) {
	for world, g := range f32ParityWorlds(t, 13, 4) {
		testF32FoldParityBlock(t, world, g)
	}
}

func testF32FoldParityBlock(t *testing.T, world string, g *graph.Graph[float32, float32]) {
	n := int(g.NumVertices())
	sources := []uint32{0, 3, 17, 42, 100, 101, 200, 255}
	k := len(sources)

	runBlockOnce := func(p interface {
		Program[float32, float32, float32, float32]
		DstIndependent
	}, mode Mode) [][]float32 {
		st := NewBlockState[float32](n, k)
		st.SetAllProps(inf)
		for s, src := range sources {
			st.SetProp(src, s, 0)
			st.Activate(src, s)
		}
		if _, err := RunBlock(g, p, st, Config{Mode: mode, Threads: 3}, nil); err != nil {
			t.Fatal(err)
		}
		cols := make([][]float32, k)
		for s := range cols {
			cols[s] = make([]float32, n)
			st.Column(s, cols[s])
		}
		return cols
	}

	for _, mode := range []Mode{Pull, Push, Auto} {
		t.Run(fmt.Sprintf("%s/mode_%s", world, mode), func(t *testing.T) {
			ref := runBlockOnce(ssspBlockProg{}, mode)
			got := runBlockOnce(ssspBlockFused{}, mode)
			for s := range ref {
				for v := range ref[s] {
					if math.Float32bits(got[s][v]) != math.Float32bits(ref[s][v]) {
						t.Fatalf("col %d dist[%d] = %v, generic %v", s, v, got[s][v], ref[s][v])
					}
				}
			}
		})
	}
}
