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
	"graphmat/internal/sparse"
)

// maskProg is hop counting over uint64 properties declaring the boolean fold:
// a vertex is unsettled while its property is ^0 and takes the first level
// that reaches it. maskValues is the same program without the declaration,
// so its runs fold values (foldSink, blockFoldSink) and take the column walks
// only, where maskProg's fold masks (maskSink, blockMaskSink) and may walk
// rows.
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

// maskCase is one mask-walk input: a walkCase's layered partition with a
// k-wide frontier whose column c carries the message level[c] at every
// sender — the boolean promise — and a settled set per (vertex, column).
type maskCase struct {
	*walkCase
	k       int
	level   []uint64 // level[c]: every message of column c
	x       *BlockVector[uint64]
	props   []uint64 // n×k: ^0 unsettled, else settled
	settled []uint64 // the settled set as per-vertex masks
}

func newMaskCase(seed uint64, nblk, nbase, nmut, density, settledFill, k int, bare bool) *maskCase {
	return maskCaseOf(newWalkCase(seed, nblk, nbase, nmut, 0, bare), seed, density, settledFill, k)
}

// maskCaseOf draws a k-wide frontier of fill density/256 and a settled set
// of fill settledFill/256 over walk case w's partition.
func maskCaseOf(w *walkCase, seed uint64, density, settledFill, k int) *maskCase {
	c := &maskCase{walkCase: w, k: k}
	rng := gen.NewRNG(seed ^ 0x3A5C)
	c.level = make([]uint64, k)
	for s := range c.level {
		c.level[s] = rng.Uint64() >> 1
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
				c.x.vals[v*k+s] = c.level[s]
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
// each received unsettled (vertex, column) would be applied, and the
// tallies.
type maskOut struct {
	mask, cols, applied []uint64
	edges, probes       int64
}

// maskRun is one bare sink of program p over a mask case, readied as
// runPhases readies it: a mask sink's settled mask seeded and its frontier
// read. value is what apply hands received pair (v, s).
type maskRun struct {
	c     *maskCase
	y     *BlockVector[uint64]
	sink  colSink[uint32]
	value func(v uint32, s int) uint64
}

func newMaskRun[P interface {
	Program[uint64, uint32, uint64, uint64]
	DstIndependent
}](c *maskCase, p P) *maskRun {
	r := &maskRun{c: c, y: NewBlockVector[uint64](c.n, c.k)}
	r.sink = blockSink[uint64, uint32, uint64, uint64](p, c.x, c.props, r.y)
	r.value = func(v uint32, s int) uint64 { return r.y.Row(v)[s] }
	seed := func(settled []uint64) {
		seedSettled(settled, any(p).(FirstMessageFinal[uint64]), c.props, c.k, 0, uint32(c.n))
	}
	switch s := r.sink.(type) {
	case *blockMaskSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
		s.prepare()
		r.value = func(_ uint32, col int) uint64 { return s.vals[col] }
	case *maskSink[uint64, uint32, uint64, uint64, P]:
		seed(s.settled)
		s.prepare()
		r.value = func(_ uint32, col int) uint64 { return s.vals[col] }
	}
	return r
}

// multiply folds partition l through the walk mode selects, or the row walk.
func (r *maskRun) multiply(l sparse.Layered[uint32], mode Mode, rowWalk bool, st *localStats) {
	var rows rowSink[uint32]
	if rowWalk {
		rows = r.sink.(rowSink[uint32])
	}
	multiply(mode, l, r.c.x.summary.Words(), r.sink, rows, st)
}

// out reads the run's output after its multiplies tallied st.
func (r *maskRun) out(st localStats) maskOut {
	c, y := r.c, r.y
	out := maskOut{mask: y.summary.Words(), cols: make([]uint64, c.n), applied: make([]uint64, c.n*c.k), edges: st.edges, probes: st.probes}
	for v := range out.cols {
		if y.summary.Get(uint32(v)) {
			out.cols[v] = colMask(y, uint32(v))
			for m := out.cols[v] &^ c.settled[v]; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				out.applied[v*c.k+s] = r.value(uint32(v), s)
			}
		}
	}
	return out
}

// runMask folds c's partitions for cuts through the walk mode selects, or
// the row walk, with program p's block sink.
func runMask[P interface {
	Program[uint64, uint32, uint64, uint64]
	DstIndependent
}](c *maskCase, p P, mode Mode, rowWalk bool, cuts [][2]uint32) maskOut {
	r := newMaskRun(c, p)
	var st localStats
	for _, l := range c.layers(cuts) {
		r.multiply(l, mode, rowWalk, &st)
	}
	return r.out(st)
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

// naiveRows is the row walk's oracle over the fresh build of the live edge
// set: each row waits in the frontier's live columns it has not settled,
// and reading its sources in ascending id, each one looked at while some
// column still waits retires the columns it carries — received, and applied
// their column's processed level. Its edges are the slots looked at.
func (c *maskCase) naiveRows() maskOut {
	var live uint64
	for v := range c.n {
		live |= colMask(c.x, uint32(v))
	}
	waiting := make([]uint64, c.n)
	for v := range waiting {
		waiting[v] = live &^ c.settled[v]
	}
	out := maskOut{mask: make([]uint64, c.words()), cols: make([]uint64, c.n), applied: make([]uint64, c.n*c.k)}
	// Column-major, columns ascending: a row's entries come in ascending
	// source id.
	c.fresh.Iterate(func(row, col uint32, _ uint32) {
		if waiting[row] == 0 {
			return
		}
		out.edges++
		hit := colMask(c.x, col) & waiting[row]
		waiting[row] &^= hit
		if hit != 0 {
			out.mask[row>>6] |= 1 << (row & 63)
			out.cols[row] |= hit
		}
		for ; hit != 0; hit &= hit - 1 {
			s := bits.TrailingZeros64(hit)
			out.applied[int(row)*c.k+s] = maskProg{}.ProcessMessage(c.level[s], 0, 0)
		}
	})
	return out
}

// check asserts, for the whole partition and for each given row cut of it
// (walkCase.rowCuts): the column-mask fold's column walks give the value
// fold's output masks, applied values and edge tally, and its row walk the
// naive oracle's — output masks, applied values and live slots examined —
// over the fresh build, having probed no column, on plain partitions and on
// ones carrying a delta, in any mix a cut makes.
func (c *maskCase) check(t *testing.T, picks []uint) {
	t.Helper()
	naive := c.naiveRows()
	cuts := [][][2]uint32{nil}
	for _, pick := range picks {
		cuts = append(cuts, c.rowCuts(pick))
	}
	for _, cut := range cuts {
		for _, mode := range []Mode{Pull, Push} {
			want := runMask(c, maskValues{}, mode, false, cut)
			got := runMask(c, maskProg{}, mode, false, cut)
			what := fmt.Sprintf("k=%d %s cuts %v", c.k, mode, cut)
			if err := got.diff(want); err != nil {
				t.Fatalf("%s: mask fold vs value fold: %v", what, err)
			}
			if got.edges != want.edges {
				t.Fatalf("%s: mask fold tallied %d edges, value fold %d", what, got.edges, want.edges)
			}
		}
		got := runMask(c, maskProg{}, Pull, true, cut)
		what := fmt.Sprintf("k=%d row walk cuts %v", c.k, cut)
		if err := got.diff(naive); err != nil {
			t.Fatalf("%s: vs first live in-neighbours: %v", what, err)
		}
		if got.edges != naive.edges || got.probes != 0 {
			t.Fatalf("%s: examined %d slots, want %d, and probed %d columns", what, got.edges, naive.edges, got.probes)
		}
	}
}

// FuzzMaskWalk holds the column-mask fold to the value fold through the pull
// and push column walks, and its row walk to the naive "first live
// in-neighbour of each unsettled row" of a fresh build, over random layered
// partitions — overrides, tombstones, delta-only columns, built or as bare
// literals — with random frontiers 1 to 64 columns wide that keep the
// boolean promise, random settled sets and a random 64-aligned finer
// partitioning.
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
		c.check(t, []uint{uint(pick)})
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
// boolean FirstMessageFinal program, at every width, and the value fold
// everywhere else — for a FirstMessageFinal program that is not boolean
// too, which therefore takes the column walks only.
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
		{"none_first", func(k int) string { return sinkKind[uint32, uint32](bfsFirst{}, k) }, "foldSink", "blockFoldSink"},
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
// with the value fold's frontier tallies. The value fold takes the column
// walks only, so Applies, which a row walk counts over unsettled pairs
// alone, must match it only on a run that never walked rows.
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
				if got.Iterations != ref.Iterations || got.MessagesSent != ref.MessagesSent || got.ActiveSum != ref.ActiveSum || (got.RowSupersteps == 0 && got.Applies != ref.Applies) {
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
