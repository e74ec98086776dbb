package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// maskProg is hop counting over uint64 properties declaring the boolean fold:
// a vertex is unsettled while its property is ^0 and takes the first level
// that reaches it. maskValues is the same program without the declaration,
// so its runs fold values (gatherSink, blockGatherSink) where maskProg's
// fold masks (maskSink, blockMaskSink).
type maskProg struct{}

func (maskProg) SendMessage(_ VertexID, p uint64) (uint64, bool)    { return p, true }
func (maskProg) ProcessMessage(m uint64, _ uint32, _ uint64) uint64 { return m + 1 }
func (maskProg) Reduce(a, b uint64) uint64                          { return min(a, b) }
func (maskProg) Apply(r uint64, _ VertexID, p *uint64) bool {
	if *p != ^uint64(0) {
		return false
	}
	*p = r
	return true
}
func (maskProg) Direction() graph.Direction { return graph.Out }
func (maskProg) ProcessIgnoresDst()         {}
func (maskProg) Unsettled(p uint64) bool    { return p == ^uint64(0) }
func (maskProg) Semiring() Semiring         { return SemiringBoolean }

type maskValues struct{ maskProg }

func (maskValues) Semiring() Semiring { return SemiringNone }

// maskCase is one FuzzMaskWalk input: a walkCase's layered partition with a
// k-wide frontier whose column c carries the message level[c] at every
// sender — the boolean promise — and a settled set per (vertex, column).
type maskCase struct {
	*walkCase
	k       int
	x       *BlockVector[uint64]
	props   []uint64 // n×k: ^0 unsettled, else settled
	settled []uint64 // the settled set as per-vertex masks
}

func newMaskCase(seed uint64, nblk, nbase, nmut, density, settledFill, k int, bare bool) *maskCase {
	c := &maskCase{walkCase: newWalkCase(seed, nblk, nbase, nmut, 0, bare), k: k}
	rng := gen.NewRNG(seed ^ 0x3A5C)
	level := make([]uint64, k)
	for s := range level {
		level[s] = rng.Uint64() >> 1
	}
	c.x = NewBlockVector[uint64](c.n, k)
	c.props = make([]uint64, c.n*k)
	c.settled = make([]uint64, c.n)
	for v := 0; v < c.n; v++ {
		if rng.Intn(256) < density {
			cm := rng.Uint64() & fullCols(k)
			if cm == 0 {
				cm = 1
			}
			c.x.summary.Set(uint32(v))
			if c.x.cols != nil {
				c.x.cols[v] = cm
			}
			for m := cm; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				c.x.vals[v*k+s] = level[s]
			}
		}
		for s := 0; s < k; s++ {
			c.props[v*k+s] = ^uint64(0)
			if rng.Intn(256) < settledFill {
				c.props[v*k+s] = rng.Uint64() >> 1
				c.settled[v] |= 1 << s
			}
		}
	}
	return c
}

// maskOut is one multiply's output: the reduction block's masks, the value
// each received unsettled (vertex, column) would be applied, and the edge
// tally.
type maskOut struct {
	mask, cols, applied []uint64
	edges               int64
}

// runMask folds c's partitions for cuts through the walk mode selects, or
// the row walk where a layer can take it, with program p's block sink.
func runMask[P interface {
	Program[uint64, uint32, uint64, uint64]
	DstIndependent
}](c *maskCase, p P, mode Mode, rowWalk bool, cuts [][2]uint32) maskOut {
	y := NewBlockVector[uint64](c.n, c.k)
	sink := blockSink[uint64, uint32, uint64, uint64](p, c.x, c.props, y)
	value := func(v uint32, s int) uint64 { return y.Row(v)[s] }
	// Seed the settled mask and read the frontier as runPhases does.
	seed := func(settled []uint64) {
		seedSettled(settled, any(p).(FirstMessageFinal[uint64]), c.props, c.k, 0, uint32(c.n))
	}
	switch s := sink.(type) {
	case *blockMaskSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
		s.prepare()
		value = func(_ uint32, col int) uint64 { return s.vals[col] }
	case *maskSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
		s.prepare()
		value = func(_ uint32, col int) uint64 { return s.vals[col] }
	case *blockGatherSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
	case *gatherSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
	}
	var rows rowSink[uint32]
	if rowWalk {
		rows = sink.(rowSink[uint32])
	}
	var st localStats
	for _, l := range c.layers(cuts) {
		multiply(mode, l, c.x.summary.Words(), sink, rows, &st)
	}
	out := maskOut{mask: y.summary.Words(), cols: make([]uint64, c.n), applied: make([]uint64, c.n*c.k), edges: st.edges}
	for v := range out.cols {
		if y.summary.Get(uint32(v)) {
			out.cols[v] = y.ColMask(uint32(v))
			for m := out.cols[v] &^ c.settled[v]; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				out.applied[v*c.k+s] = value(uint32(v), s)
			}
		}
	}
	return out
}

func (o maskOut) diff(p maskOut) error {
	for w := range o.mask {
		if o.mask[w] != p.mask[w] {
			return fmt.Errorf("mask word %d = %#x, want %#x", w, o.mask[w], p.mask[w])
		}
	}
	for v := range o.cols {
		if o.cols[v] != p.cols[v] {
			return fmt.Errorf("row %d column mask = %#x, want %#x", v, o.cols[v], p.cols[v])
		}
	}
	k := len(o.applied) / len(o.cols)
	for i := range o.applied {
		if o.applied[i] != p.applied[i] {
			return fmt.Errorf("row %d column %d applies %d, want %d", i/k, i%k, o.applied[i], p.applied[i])
		}
	}
	return nil
}

// rowSlots is the mask row walk's edge oracle over the fresh build: each row
// waits in the frontier's live columns it has not settled, and each slot
// looked at while some column still waits retires the columns its source
// carries.
func (c *maskCase) rowSlots() int64 {
	var live uint64
	for v := range c.n {
		live |= c.x.ColMask(uint32(v))
	}
	waiting := make([]uint64, c.n)
	for v := range waiting {
		waiting[v] = live &^ c.settled[v]
	}
	var slots int64
	c.fresh.Iterate(func(row, col uint32, _ uint32) {
		if waiting[row] != 0 {
			slots++
			waiting[row] &^= c.x.ColMask(col)
		}
	})
	return slots
}

// check asserts, for each walk over the whole partition and over the cut
// partitions: the column-mask fold's output masks and applied values are the
// value fold's, its column walks tally the value fold's edges, and its row
// walk examines exactly the oracle's slots over the fresh build — on plain
// partitions and on ones carrying a delta, in any mix a cut makes.
func (c *maskCase) check(t *testing.T, cuts [][2]uint32) {
	t.Helper()
	for _, cut := range [][][2]uint32{nil, cuts} {
		for _, walk := range []struct {
			mode    Mode
			rowWalk bool
		}{{Pull, false}, {Push, false}, {Pull, true}} {
			want := runMask(c, maskValues{}, walk.mode, walk.rowWalk, cut)
			got := runMask(c, maskProg{}, walk.mode, walk.rowWalk, cut)
			what := fmt.Sprintf("k=%d %s rowWalk=%v cuts %v", c.k, walk.mode, walk.rowWalk, cut)
			if err := got.diff(want); err != nil {
				t.Fatalf("%s: mask fold vs value fold: %v", what, err)
			}
			if !walk.rowWalk {
				if got.edges != want.edges {
					t.Fatalf("%s: mask fold tallied %d edges, value fold %d", what, got.edges, want.edges)
				}
			} else if slots := c.rowSlots(); got.edges != slots {
				t.Fatalf("%s: mask row walk examined %d slots, want %d", what, got.edges, slots)
			}
		}
	}
}

// FuzzMaskWalk holds the column-mask fold to the value fold over random
// layered partitions — overrides, tombstones, delta-only columns, built or
// as bare literals — with random frontiers 1 to 64 columns wide that keep
// the boolean promise, random settled sets and a random 64-aligned finer
// partitioning, through the pull and push column walks and the row walk.
func FuzzMaskWalk(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(200), uint8(0), uint8(128), uint8(64), uint8(1), uint8(1), false)   // plain, k=2
	f.Add(uint64(2), uint8(4), uint8(250), uint8(60), uint8(200), uint8(30), uint8(15), uint8(5), false) // overlay, k=16
	f.Add(uint64(3), uint8(3), uint8(255), uint8(0), uint8(255), uint8(0), uint8(63), uint8(3), true)    // full frontier, nothing settled, k=64
	f.Add(uint64(4), uint8(3), uint8(40), uint8(90), uint8(30), uint8(200), uint8(62), uint8(6), true)   // delta-heavy, mostly settled, k=63
	f.Add(uint64(58), uint8(3), uint8(5), uint8(5), uint8(4), uint8(252), uint8(37), uint8(52), true)    // an overlay cut into plain and delta partitions
	f.Add(uint64(5), uint8(3), uint8(255), uint8(0), uint8(60), uint8(100), uint8(1), uint8(7), false)   // plain, sparse frontier, k=2
	f.Add(uint64(6), uint8(3), uint8(255), uint8(40), uint8(160), uint8(10), uint8(63), uint8(2), false) // overlay, dense frontier, k=64
	f.Add(uint64(7), uint8(3), uint8(220), uint8(0), uint8(40), uint8(90), uint8(0), uint8(4), false)    // plain, k=1
	f.Add(uint64(8), uint8(4), uint8(200), uint8(70), uint8(90), uint8(60), uint8(64), uint8(6), false)  // overlay, k=1
	f.Fuzz(func(t *testing.T, seed uint64, nblk, nbase, nmut, density, settledFill, width, pick uint8, bare bool) {
		fill := int(density)
		if fill == 255 {
			fill = 256 // the top of the range is the full frontier
		}
		k := 1 + int(width)%64 // a mask sink's widths: 1..64
		c := newMaskCase(seed, 1+int(nblk%4), int(nbase), int(nmut), fill, int(settledFill), k, bare)
		c.check(t, c.rowCuts(uint(pick)))
	})
}

// sinkKind names the sink blockSink resolves p to at width k, without its
// type arguments.
func sinkKind[V, M any, P Program[V, float32, M, M]](p P, k int) string {
	const n = 64
	name := fmt.Sprintf("%T", blockSink[V, float32, M, M](p, NewBlockVector[M](n, k), make([]V, n*k), NewBlockVector[M](n, k)))
	name, _, _ = strings.Cut(name, "[")
	return strings.TrimPrefix(name, "*core.")
}

// TestSemiringSinks pins which sink each declaration resolves to, per width:
// a fused fold only where the element types match the declared semiring (the
// uint32 min fold at one column only), the column-mask fold only for a
// boolean FirstMessageFinal program, at every width, and the value fold —
// with the gather beside it for a FirstMessageFinal program — everywhere
// else.
func TestSemiringSinks(t *testing.T) {
	for _, c := range []struct {
		name     string
		kind     func(k int) string
		one, two string
	}{
		{"sum_f64", func(k int) string { return sinkKind[float64, float64](rankProg{}, k) }, "sumSinkF64", "blockSumSinkF64"},
		{"minplus_f32", func(k int) string { return sinkKind[float32, float32](ssspFused{}, k) }, "pathSinkF32", "blockPathSinkF32"},
		{"maxmin_f32", func(k int) string { return sinkKind[float32, float32](widestFused{}, k) }, "pathSinkF32", "blockPathSinkF32"},
		{"sum_f64_wrong_types", func(k int) string { return sinkKind[uint32, uint32](sumOverWords{}, k) }, "foldSink", "blockFoldSink"},
		{"min_u32", func(k int) string { return sinkKind[uint32, uint32](ccFused{}, k) }, "minSinkU32", "blockFoldSink"},
		{"min_u32_wrong_types", func(k int) string { return sinkKind[float32, float32](minOverFloats{}, k) }, "foldSink", "blockFoldSink"},
		{"boolean_first", func(k int) string { return sinkKind[uint32, uint32](bfsBoolean{}, k) }, "maskSink", "blockMaskSink"},
		{"none_first", func(k int) string { return sinkKind[uint32, uint32](bfsFirst{}, k) }, "gatherSink", "blockGatherSink"},
		{"boolean_without_first", func(k int) string { return sinkKind[uint32, uint32](booleanOnly{}, k) }, "foldSink", "blockFoldSink"},
		{"none", func(k int) string { return sinkKind[uint32, uint32](bfsProg{}, k) }, "foldSink", "blockFoldSink"},
	} {
		if got := c.kind(1); got != c.one {
			t.Errorf("%s at k=1: %s, want %s", c.name, got, c.one)
		}
		if got := c.kind(2); got != c.two {
			t.Errorf("%s at k=2: %s, want %s", c.name, got, c.two)
		}
	}
}

// booleanOnly declares the boolean fold without FirstMessageFinal: with no
// settled set to seed, the column-mask fold is not taken.
type booleanOnly struct{ bfsProg }

func (booleanOnly) Semiring() Semiring { return SemiringBoolean }

// sumOverWords declares the float64 sum over uint32 values, which the fused
// sum sinks cannot fold.
type sumOverWords struct{ bfsProg }

func (sumOverWords) Semiring() Semiring { return SemiringSumF64 }

// minOverFloats declares the uint32 min over float32 values, which the fused
// min sink cannot fold.
type minOverFloats struct{ ssspProg }

func (minOverFloats) Semiring() Semiring { return SemiringMinU32 }

// floodProg floods each source's label through its column: a vertex is
// unsettled while its label is 0 and takes the label that first reaches it.
// Every message of a column carries the column's one label, so the boolean
// promise holds with a different value per column — which a column-mask run
// must hand to each column's own Apply. floodValues folds values instead.
type floodProg struct{}

func (floodProg) SendMessage(_ VertexID, p uint32) (uint32, bool)     { return p, true }
func (floodProg) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m }
func (floodProg) Reduce(a, b uint32) uint32                           { return min(a, b) }
func (floodProg) Apply(r uint32, _ VertexID, p *uint32) bool {
	if *p != 0 {
		return false
	}
	*p = r
	return true
}
func (floodProg) Direction() graph.Direction { return graph.Out }
func (floodProg) ProcessIgnoresDst()         {}
func (floodProg) Unsettled(p uint32) bool    { return p == 0 }
func (floodProg) Semiring() Semiring         { return SemiringBoolean }

type floodValues struct{ floodProg }

func (floodValues) Semiring() Semiring { return SemiringNone }

// TestMaskRunColumnValues runs floodProg blocks, whose columns each carry
// their own label, through the column-mask fold under every mode at one and
// three workers: each column must be the value fold's and its solo run's,
// with the value fold's frontier tallies.
func TestMaskRunColumnValues(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 5, MaxWeight: 9})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float32](adj, graph.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	sources := make([]uint32, 64)
	for i := range sources {
		sources[i] = uint32(i * 13 % n)
	}
	run := func(p interface {
		Program[uint32, float32, uint32, uint32]
		DstIndependent
	}, srcs []uint32, cfg Config) (Stats, [][]uint32) {
		st := NewBlockState[uint32](n, len(srcs))
		for s, src := range srcs {
			st.SetProp(src, s, uint32(s)+1)
			st.Activate(src, s)
		}
		stats, err := RunContext(context.Background(), g, p, st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats, st.Columns()
	}
	for _, k := range []int{2, 7, 64} {
		for _, mode := range []Mode{Push, Pull, Auto} {
			for _, threads := range []int{1, 3} {
				cfg := Config{Mode: mode, Threads: threads}
				what := fmt.Sprintf("k=%d mode %s threads %d", k, mode, threads)
				ref, refCols := run(floodValues{}, sources[:k], cfg)
				got, cols := run(floodProg{}, sources[:k], cfg)
				if got.Iterations != ref.Iterations || got.MessagesSent != ref.MessagesSent || got.ActiveSum != ref.ActiveSum || got.Applies != ref.Applies {
					t.Errorf("%s: frontier tallies differ from the value fold's\n got %+v\nwant %+v", what, got, ref)
				}
				for s := range cols {
					if !slices.Equal(cols[s], refCols[s]) {
						t.Fatalf("%s: column %d differs from the value fold's", what, s)
					}
					_, solo := run(floodProg{}, sources[s:s+1], cfg)
					for v, label := range solo[0] {
						if label != 0 {
							label += uint32(s) // the solo run's label is 1
						}
						if cols[s][v] != label {
							t.Fatalf("%s: column %d vertex %d = %d, its solo run says %d", what, s, v, cols[s][v], label)
						}
					}
				}
			}
		}
	}
}
