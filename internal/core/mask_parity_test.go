package core

import (
	"fmt"
	"slices"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// A one-column run of a program declaring SemiringBoolean, FirstMessageFinal
// and DstIndependent folds masks (maskSink) and may walk rows, where its
// twin without the boolean declaration folds values (foldSink) by the column
// walks only. TestBooleanMaskFoldOneColumnParity holds the two to each other
// from two starts (checkMaskParity), across modes, threads and plain versus
// overlay (base+delta) partitions: maskProg against maskValues over uint32
// weights, bfsBoolean against bfsFirst over float32 ones. Properties and the
// walk-independent Stats fields must match always, and every Stats field
// but the wall-clock Sched on a run that took no row walk — forced Push.

// u32ParityWorlds is f32ParityWorlds over uint32 weights: the same RMAT edge
// set built plain, and served from a store whose pending overlay re-weights
// an edge, deletes every out-edge of one vertex (a tombstone) and gives a
// sink vertex out-edges (a delta-only column).
func u32ParityWorlds(t *testing.T, seed uint64, nparts int) map[string]*graph.Graph[uint32] {
	t.Helper()
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: seed, MaxWeight: 31})
	adj.RemoveSelfLoops()
	adj.SortRowMajor()
	adj.DedupKeepFirst()
	n := adj.NRows
	coo := sparse.NewCOO[uint32](n, adj.NCols)
	outDeg := make([]int, n)
	for _, e := range adj.Entries {
		coo.Add(e.Row, e.Col, uint32(e.Val))
		outDeg[e.Row]++
	}
	doomed := uint32(slices.IndexFunc(outDeg[1:], func(d int) bool { return d >= 3 }) + 1)
	sink := uint32(slices.Index(outDeg, 0))
	if doomed == 0 || sink == ^uint32(0) {
		t.Fatal("fixture: no vertex to tombstone or no sink vertex")
	}
	first := coo.Entries[0]
	batch := []graph.Update[uint32]{
		{Src: first.Row, Dst: first.Col, Val: first.Val + 7},
		{Src: sink, Dst: 1, Val: 2},
		{Src: sink, Dst: n - 1, Val: 5},
		{Src: 0, Dst: sink, Val: 1}, // the new column is reachable from the root
	}
	for _, e := range coo.Entries {
		if e.Row == doomed {
			batch = append(batch, graph.Update[uint32]{Src: e.Row, Dst: e.Col, Del: true})
		}
	}
	plain, err := graph.NewFromCOO[uint32](coo.Clone(), graph.Options{Partitions: nparts})
	if err != nil {
		t.Fatal(err)
	}
	overlay := u32Overlay(t, coo, batch, nparts).Graph()
	if !slices.ContainsFunc(overlay.OutLayers(), func(l sparse.Layered[uint32]) bool { return l.Delta != nil }) {
		t.Fatal("fixture is vacuous: no layer carries a delta")
	}
	return map[string]*graph.Graph[uint32]{"plain": plain, "overlay": overlay}
}

// u32Overlay serves adj from a store with batch pending as its overlay. The
// pinned snapshot is released with the test.
func u32Overlay(t *testing.T, adj *sparse.COO[uint32], batch []graph.Update[uint32], nparts int) *graph.Snapshot[uint32] {
	t.Helper()
	store, err := graph.NewStore[uint32](adj, graph.Options{Partitions: nparts, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	snap := store.Acquire()
	t.Cleanup(snap.Release)
	return snap
}

// hopStart is where a runHops run starts: its roots at level zero, and the
// vertices already settled at level, which never send.
type hopStart[V any] struct {
	roots, settled []VertexID
	level          V
}

// runHops runs hop-counting program p from start over one column, every
// other vertex starting at unreached, and returns the properties and the
// Stats without Sched.
func runHops[V, E any, P Program[V, E, V, V]](t *testing.T, g *graph.Graph[E], p P, unreached V, start hopStart[V], cfg Config) ([]V, Stats) {
	t.Helper()
	st := NewBlockState[V](int(g.NumVertices()), 1)
	st.SetAllProps(unreached)
	for _, v := range start.settled {
		st.SetProp(v, 0, start.level)
	}
	st.ClearActive()
	var root V
	for _, v := range start.roots {
		st.SetProp(v, 0, root)
		st.Activate(v, 0)
	}
	stats, err := Run(g, p, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats.Sched = SchedStats{}
	return slices.Clone(st.Props()), stats
}

// checkMaskParity runs mask and values from two starts: root 0 alone, every
// other vertex unsettled, and ("_seeded") three roots beside a scattered set
// of vertices settled at level 1, which the settled masks must skip from
// the first superstep on. No message processes to less than 1, so bfsProg's
// min Apply keeps the mask promise on them.
func checkMaskParity[V interface{ ~uint32 | ~uint64 }, E any, PM, PV Program[V, E, V, V]](t *testing.T, worlds map[string]*graph.Graph[E], name string, mask PM, values PV, unreached V) {
	for world, g := range worlds {
		n := g.NumVertices()
		seeded := hopStart[V]{roots: []VertexID{0, n / 3, 2 * n / 3}, level: 1}
		for v := VertexID(5); v < n; v += 7 {
			if !slices.Contains(seeded.roots, v) {
				seeded.settled = append(seeded.settled, v)
			}
		}
		for _, start := range []struct {
			suffix string
			hopStart[V]
		}{{"", hopStart[V]{roots: []VertexID{0}}}, {"_seeded", seeded}} {
			for _, mode := range []Mode{Pull, Push, Auto} {
				for _, threads := range []int{1, 3} {
					cfg := Config{Mode: mode, Threads: threads}
					t.Run(fmt.Sprintf("%s%s/%s/mode_%s_threads_%d", name, start.suffix, world, mode, threads), func(t *testing.T) {
						ref, refStats := runHops(t, g, values, unreached, start.hopStart, cfg)
						got, gotStats := runHops(t, g, mask, unreached, start.hopStart, cfg)
						if refStats.Iterations < 3 {
							t.Fatalf("vacuous: the run converged in %d supersteps", refStats.Iterations)
						}
						if refStats.RowSupersteps != 0 {
							t.Fatalf("the value fold took %d row-walk supersteps", refStats.RowSupersteps)
						}
						if mode != Push && gotStats.RowSupersteps == 0 {
							t.Fatal("vacuous: no superstep took the row walk")
						}
						for v := range ref {
							if got[v] != ref[v] {
								t.Fatalf("prop[%d] = %v, value fold %v", v, got[v], ref[v])
							}
						}
						if gotStats.Iterations != refStats.Iterations || gotStats.MessagesSent != refStats.MessagesSent || gotStats.ActiveSum != refStats.ActiveSum {
							t.Errorf("frontier tallies\n  mask %+v\nvalues %+v", gotStats, refStats)
						}
						if gotStats.RowSupersteps == 0 && gotStats != refStats {
							t.Errorf("stats of a run without a row walk\n  mask %+v\nvalues %+v", gotStats, refStats)
						}
					})
				}
			}
		}
	}
}

func TestBooleanMaskFoldOneColumnParity(t *testing.T) {
	checkMaskParity(t, u32ParityWorlds(t, 17, 4), "mask", maskProg{}, maskValues{}, ^uint64(0))
	checkMaskParity(t, f32ParityWorlds(t, 23, 4), "bfs", bfsBoolean{}, bfsFirst{}, ^uint32(0))
}

// booleanReadsDst declares the boolean fold and FirstMessageFinal but not
// DstIndependent: its ProcessMessage may read the destination, which a mask
// fold never passes it, so a one-column run keeps the value fold and the
// column walks.
type booleanReadsDst struct{}

func (booleanReadsDst) SendMessage(_ VertexID, p uint32) (uint32, bool)     { return p, true }
func (booleanReadsDst) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m + 1 }
func (booleanReadsDst) Reduce(a, b uint32) uint32                           { return min(a, b) }
func (booleanReadsDst) Apply(r uint32, _ VertexID, p *uint32) bool          { return bfsProg{}.Apply(r, 0, p) }
func (booleanReadsDst) Direction() graph.Direction                          { return graph.Out }
func (booleanReadsDst) Unsettled(p uint32) bool                             { return p == ^uint32(0) }
func (booleanReadsDst) Semiring() Semiring                                  { return SemiringBoolean }

func TestBooleanMaskFoldNeedsDstIndependent(t *testing.T) {
	if got := sinkKind[uint32, uint32](booleanReadsDst{}, 1); got != "foldSink" {
		t.Errorf("a boolean FirstMessageFinal program that may read its destination folds through %s at k=1, want foldSink", got)
	}
}
