package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Kernel-level tests of the two column walks: every (walk, sink,
// partitioning) combination over a plain or overlay partition must equal a
// naive fold over a fresh DCSC build of the live edge set. The fold is a
// non-commutative hash, so a reordered, repeated, dropped or misplaced edge
// fold changes the result — value equality asserts the exact per-destination
// fold sequence, not just the edge multiset. The pull walk's flat folds are
// covered by the same cases: a frontier that fills a column batch sends it
// down foldFlat, and FlatEdges must equal the edges of exactly those batches
// — except that a frontier reaching every column of a plain partition sends
// the whole partition down in one foldFlat call, which the harness counts.
// The row walk, which only the column-mask sinks take, has its kernel-level
// tests in mask_walk_test.go, over the same generated partitions.

// hashProg folds uint64 messages order-sensitively and reads the destination
// property, so the scalar runs take the generic (non-DstIndependent) loop.
// hashProgFree is the same fold without the destination read, declared
// DstIndependent: the generic sink's other arm, and the block sinks' program.
type hashProg struct{}

type hashProgFree struct{ hashProg }

func (hashProgFree) ProcessMessage(m uint64, e uint32, _ uint64) uint64 {
	return m*0x9E3779B97F4A7C15 + uint64(e)
}
func (hashProgFree) ProcessIgnoresDst() {}

func (hashProg) SendMessage(_ VertexID, p uint64) (uint64, bool) { return p, true }
func (hashProg) ProcessMessage(m uint64, e uint32, dst uint64) uint64 {
	return m*0x9E3779B97F4A7C15 + uint64(e) + dst
}
func (hashProg) Reduce(a, b uint64) uint64            { return a*1099511628211 + b }
func (hashProg) Apply(uint64, VertexID, *uint64) bool { return false }
func (hashProg) Direction() graph.Direction           { return graph.Out }

// walkKey addresses one matrix entry; sortedWalkKeys orders a set of them
// column-major, the order DCSC builds and mutation batches require.
type walkKey struct{ col, row uint32 }

func sortedWalkKeys[V any](m map[walkKey]V) []walkKey {
	ks := make([]walkKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].col != ks[b].col {
			return ks[a].col < ks[b].col
		}
		return ks[a].row < ks[b].row
	})
	return ks
}

// walkCase is one generated partition with its frontier and oracle.
type walkCase struct {
	n     int                    // matrix dimension
	l     sparse.Layered[uint32] // the partition under test
	fresh *sparse.DCSC[uint32]   // BuildDCSC of the live edge set, same row range
	// baseCOO and batch are what l was built from — the base entries and
	// the update batch — so layers can build the same edges at a finer
	// partitioning; bare says l's layers are bare literals.
	baseCOO *sparse.COO[uint32]
	batch   []sparse.Mut[uint32]
	bare    bool
	props   []uint64
	x       *sparse.Vector[uint64] // scalar frontier
	blocks  map[int]*BlockVector[uint64]

	// The same partition, fresh build and frontier with float32 edge values
	// and float or uint32 messages, for the fused sum, path and min sinks (a
	// pathSinkF32 is a colSink[float32] only).
	lf     sparse.Layered[float32]
	freshf *sparse.DCSC[float32]
	xf64   *sparse.Vector[float64]
	xf32   *sparse.Vector[float32]
	xu32   *sparse.Vector[uint32] // labels, for the fused uint32 min sink
}

// f32Twin is d with its edge values mapped to small float32 weights; the
// index arrays are shared.
func f32Twin(d *sparse.DCSC[uint32]) *sparse.DCSC[float32] {
	if d == nil {
		return nil
	}
	val := make([]float32, len(d.Val))
	for k, v := range d.Val {
		val[k] = float32(v%2048) / 8
	}
	return &sparse.DCSC[float32]{
		NRows: d.NRows, NCols: d.NCols, JC: d.JC, CP: d.CP, IR: d.IR, Val: val,
		RowLo: d.RowLo, RowHi: d.RowHi,
	}
}

// bareLiteral returns d as a hand-assembled DCSC literal over the same
// arrays, with none of its derived views built: the walk that reaches it
// first builds its column index (and flat or row views) itself.
func bareLiteral(d *sparse.DCSC[uint32]) *sparse.DCSC[uint32] {
	if d == nil {
		return nil
	}
	return &sparse.DCSC[uint32]{
		NRows: d.NRows, NCols: d.NCols, JC: d.JC, CP: d.CP, IR: d.IR, Val: d.Val,
		RowLo: d.RowLo, RowHi: d.RowHi,
	}
}

// newWalkCase generates a partition of nblk 64-row blocks inside an n×n
// matrix: nbase random base entries, then nmut mutations merged into a delta
// — upserts into existing and brand-new columns (overrides, delta-only
// columns), single-entry deletes, and whole-column deletes (tombstones).
// density/256 is the frontier fill; 256 is every vertex, the only fill that
// reliably makes whole column batches live. The live edge set is tracked by
// brute force, independent of the structures under test.
func newWalkCase(seed uint64, nblk, nbase, nmut, density int, bare bool) *walkCase {
	rng := gen.NewRNG(seed)
	pad := rng.Intn(3) // blocks of rows before the partition
	n := 64 * (pad + nblk + rng.Intn(3))
	rowLo, rowHi := uint32(64*pad), uint32(64*(pad+nblk))
	type key = walkKey
	live := map[key]uint32{}
	randRow := func() uint32 { return rowLo + rng.Uint32n(rowHi-rowLo) }

	for i := 0; i < nbase; i++ {
		live[key{rng.Uint32n(uint32(n)), randRow()}] = uint32(rng.Uint64())
	}
	liveCOO := func() *sparse.COO[uint32] {
		coo := sparse.NewCOO[uint32](uint32(n), uint32(n))
		for _, k := range sortedWalkKeys(live) {
			coo.Add(k.row, k.col, live[k])
		}
		return coo
	}
	baseCOO := liveCOO()
	base := sparse.BuildDCSC(baseCOO, rowLo, rowHi)

	// Mutations: last write per (row, col) wins, as the store's batches do.
	type mut struct {
		val uint32
		del bool
	}
	muts := map[key]mut{}
	baseKeys := sortedWalkKeys(live)
	for i := 0; i < nmut; i++ {
		switch kind := rng.Intn(4); {
		case kind == 0 && len(baseKeys) > 0: // tombstone: delete a whole base column
			col := baseKeys[rng.Intn(len(baseKeys))].col
			for _, k := range baseKeys {
				if k.col == col {
					muts[k] = mut{del: true}
				}
			}
		case kind == 1 && len(baseKeys) > 0: // delete one stored entry
			muts[baseKeys[rng.Intn(len(baseKeys))]] = mut{del: true}
		default: // upsert anywhere: override or delta-only column
			muts[key{rng.Uint32n(uint32(n)), randRow()}] = mut{val: uint32(rng.Uint64())}
		}
	}
	var batch []sparse.Mut[uint32]
	for _, k := range sortedWalkKeys(muts) {
		m := muts[k]
		batch = append(batch, sparse.Mut[uint32]{Row: k.row, Col: k.col, Val: m.val, Del: m.del})
		if m.del {
			delete(live, k)
		} else {
			live[k] = m.val
		}
	}
	c := &walkCase{
		n: n, l: sparse.Layered[uint32]{Base: base, Delta: sparse.MergeDelta(base, nil, batch)},
		fresh:   sparse.BuildDCSC(liveCOO(), rowLo, rowHi),
		baseCOO: baseCOO, batch: batch, bare: bare,
	}
	if bare {
		c.l.Base, c.l.Delta = bareLiteral(c.l.Base), bareLiteral(c.l.Delta)
	}

	c.lf = sparse.Layered[float32]{Base: f32Twin(c.l.Base), Delta: f32Twin(c.l.Delta)}
	c.freshf = f32Twin(c.fresh)

	c.props = make([]uint64, n)
	c.x = sparse.NewVector[uint64](n)
	c.xf64, c.xf32, c.xu32 = sparse.NewVector[float64](n), sparse.NewVector[float32](n), sparse.NewVector[uint32](n)
	c.blocks = map[int]*BlockVector[uint64]{2: NewBlockVector[uint64](n, 2), 3: NewBlockVector[uint64](n, 3)}
	for v := 0; v < n; v++ {
		c.props[v] = rng.Uint64()
		if rng.Intn(256) >= density {
			continue
		}
		m := rng.Uint64()
		c.x.Set(uint32(v), m)
		// Spread the float64 messages over 40 binades so their sum depends
		// on the order of the adds; one in 16 is a special value instead,
		// from the same draw, so a full frontier also folds the values a
		// whole partition's identity seed must pass through unchanged.
		c.xf64.Set(uint32(v), math.Ldexp(1+float64(m>>12)/(1<<52), int(m%41)-20))
		c.xf32.Set(uint32(v), float32(m%4096)/16)
		c.xu32.Set(uint32(v), uint32(m>>32))
		if m>>60 == 0 {
			c.xf64.Set(uint32(v), walkSpecialsF64[(m>>4)%uint64(len(walkSpecialsF64))])
			c.xu32.Set(uint32(v), walkSpecialsU32[(m>>4)%uint64(len(walkSpecialsU32))])
		}
		for k, b := range c.blocks {
			cm := uint64(1 + rng.Intn(1<<k-1))
			b.summary.Set(uint32(v))
			b.cols[v] = cm
			for ; cm != 0; cm &= cm - 1 {
				b.vals[v*k+bits.TrailingZeros64(cm)] = rng.Uint64()
			}
		}
	}
	return c
}

// walkSpecialsF64 and walkSpecialsU32 are the special messages of a walk
// case's sum and min frontiers: signed zeros, infinities, quiet NaNs with
// distinct payloads and subnormals; the extreme labels.
var (
	walkSpecialsF64 = []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff800000000beef),
		math.Float64frombits(1), -math.Float64frombits(0x000ffffffffffff0),
	}
	walkSpecialsU32 = []uint32{0, math.MaxUint32}
)

// rowCuts expands a subset of the partition's interior 64-row boundaries
// (bit i of pick selects boundary i) into the [lo, hi) row ranges of a finer
// partitioning.
func (c *walkCase) rowCuts(pick uint) [][2]uint32 {
	lo, hi := c.l.Base.RowLo, c.l.Base.RowHi
	var cuts [][2]uint32
	i := 0
	for b := lo + 64; b < hi; b += 64 {
		if pick&(1<<i) != 0 {
			cuts = append(cuts, [2]uint32{lo, b})
			lo = b
		}
		i++
	}
	return append(cuts, [2]uint32{lo, hi})
}

// layers returns the partitions a walk runs over: for nil cuts the case's own
// partition, else one partition per cut — its own base built over the base
// entries in its rows and its own delta merged from the batch's mutations
// there, as a build at that partition count followed by the same batch
// leaves them, bare literals where the case's are.
func (c *walkCase) layers(cuts [][2]uint32) []sparse.Layered[uint32] {
	if cuts == nil {
		return []sparse.Layered[uint32]{c.l}
	}
	parts := make([]sparse.Layered[uint32], len(cuts))
	for i, cut := range cuts {
		base := sparse.BuildDCSC(c.baseCOO, cut[0], cut[1])
		var muts []sparse.Mut[uint32]
		for _, m := range c.batch {
			if m.Row >= cut[0] && m.Row < cut[1] {
				muts = append(muts, m)
			}
		}
		parts[i] = sparse.Layered[uint32]{Base: base, Delta: sparse.MergeDelta(base, nil, muts)}
		if c.bare {
			parts[i] = sparse.Layered[uint32]{Base: bareLiteral(parts[i].Base), Delta: bareLiteral(parts[i].Delta)}
		}
	}
	return parts
}

// layersF is layers with float32 edge values (f32Twin).
func (c *walkCase) layersF(cuts [][2]uint32) []sparse.Layered[float32] {
	if cuts == nil {
		return []sparse.Layered[float32]{c.lf}
	}
	parts := make([]sparse.Layered[float32], 0, len(cuts))
	for _, l := range c.layers(cuts) {
		parts = append(parts, sparse.Layered[float32]{Base: f32Twin(l.Base), Delta: f32Twin(l.Delta)})
	}
	return parts
}

// walkOut is one multiply's output and tallies.
type walkOut struct {
	mask          []uint64
	vals          []uint64 // scalar: n values; block: n*k, meaningful at set (row, column) pairs
	cols          []uint64 // block only: per-row column masks
	edges, probes int64
	flat          int64 // the part of edges folded through foldFlat
	// flatSpans: scalar only, the base edge positions [lo, hi) of each
	// foldFlat call, in call order.
	flatSpans [][2]int
}

// flatCounter wraps a scalar sink and records the base edge span of each
// foldFlat call before passing it on. The flat folds read the base only, so
// a call's ir is base[lo:hi], and lo is how much shorter its capacity is.
type flatCounter[E any] struct {
	colSink[E]
	base  []uint32
	spans *[][2]int
}

func (s flatCounter[E]) foldFlat(ir []uint32, val []E, src []uint32, rows rowMask) {
	lo := cap(s.base) - cap(ir)
	*s.spans = append(*s.spans, [2]int{lo, lo + len(ir)})
	s.colSink.(flatSink[E]).foldFlat(ir, val, src, rows)
}

func (o walkOut) equal(p walkOut) error {
	for w := range o.mask {
		if o.mask[w] != p.mask[w] {
			return fmt.Errorf("mask word %d = %#x, want %#x", w, o.mask[w], p.mask[w])
		}
	}
	k := len(o.vals) / (len(o.mask) * 64)
	for r := 0; r < len(o.mask)*64; r++ {
		if o.mask[r>>6]&(1<<(r&63)) == 0 {
			continue
		}
		cm := uint64(1)
		if o.cols != nil {
			if cm = o.cols[r]; cm != p.cols[r] {
				return fmt.Errorf("row %d column mask = %#x, want %#x", r, cm, p.cols[r])
			}
		}
		for ; cm != 0; cm &= cm - 1 {
			i := r*k + bits.TrailingZeros64(cm)
			if o.vals[i] != p.vals[i] {
				return fmt.Errorf("row %d col %d = %#x, want %#x", r, i-r*k, o.vals[i], p.vals[i])
			}
		}
	}
	if o.edges != p.edges {
		return fmt.Errorf("edges = %d, want %d", o.edges, p.edges)
	}
	return nil
}

// words is the mask word count of an n-vertex vector.
func (c *walkCase) words() int { return (c.n + 63) / 64 }

// walkFold is one sink under test: its run through a walk and its oracle.
type walkFold struct {
	name string
	// flat: the sink has a flat fold, so a pull call tallies its
	// partition's fully-live batches in FlatEdges.
	flat bool
	live func(j uint32) bool // frontier membership
	// run folds the case's partitions for cuts (walkCase.layers) through the
	// walk mode selects, one call per partition, into one output vector.
	run func(mode Mode, cuts [][2]uint32) walkOut
	// naive folds the fresh build of the live edge set column by column
	// with no kernel code.
	naive func() walkOut
}

// scalarFold builds the walkFold of program p's scalar sink over the
// partitions layers returns (walkCase.layers or layersF), against fresh (the
// live edge set built from scratch). bitsOf maps a reduced value to the bits
// compared.
func scalarFold[V, E, M, R any, P Program[V, E, M, R]](c *walkCase, name string, p P, layers func([][2]uint32) []sparse.Layered[E], fresh *sparse.DCSC[E], x *sparse.Vector[M], props []V, bitsOf func(R) uint64) walkFold {
	f := walkFold{
		name: name, flat: true, live: x.Has,
		run: func(mode Mode, cuts [][2]uint32) walkOut {
			y := sparse.NewVector[R](c.n)
			counted := flatCounter[E]{colSink: scalarSink(p, x, props, y), spans: new([][2]int)}
			var st localStats
			for _, l := range layers(cuts) {
				counted.base = l.Base.IR
				multiply(mode, l, x.Mask().Words(), counted, nil, &st)
			}
			out := walkOut{mask: y.Mask().Words(), vals: make([]uint64, c.words()*64), edges: st.edges, probes: st.probes, flat: st.flat, flatSpans: *counted.spans}
			for i, r := range y.Values() {
				out.vals[i] = bitsOf(r)
			}
			return out
		},
		naive: func() walkOut {
			out := walkOut{mask: make([]uint64, c.words()), vals: make([]uint64, c.words()*64)}
			acc := make([]R, c.n)
			fresh.Iterate(func(row, col uint32, e E) {
				if !x.Has(col) {
					return
				}
				r := p.ProcessMessage(x.Get(col), e, props[row])
				if out.mask[row>>6]&(1<<(row&63)) != 0 {
					r = p.Reduce(acc[row], r)
				}
				acc[row] = r
				out.vals[row] = bitsOf(r)
				out.mask[row>>6] |= 1 << (row & 63)
				out.edges++
			})
			return out
		},
	}
	return f
}

// blockFold is the walkFold of p's k-wide block sink.
func blockFold[P interface {
	Program[uint64, uint32, uint64, uint64]
	DstIndependent
}](c *walkCase, name string, p P, k int) walkFold {
	x := c.blocks[k]
	newOut := func() walkOut {
		return walkOut{mask: make([]uint64, c.words()), vals: make([]uint64, c.words()*64*k), cols: make([]uint64, c.words()*64)}
	}
	f := walkFold{
		name: fmt.Sprintf("%s_k%d", name, k), live: x.summary.Get,
		run: func(mode Mode, cuts [][2]uint32) walkOut {
			y := NewBlockVector[uint64](c.n, k)
			sink := blockSink[uint64, uint32, uint64, uint64](p, x, nil, y) // props size only a mask sink
			var st localStats
			for _, l := range c.layers(cuts) {
				multiply(mode, l, x.summary.Words(), sink, nil, &st)
			}
			out := newOut()
			out.mask, out.edges, out.probes, out.flat = y.summary.Words(), st.edges, st.probes, st.flat
			copy(out.vals, y.vals)
			copy(out.cols, y.cols)
			return out
		},
		naive: func() walkOut {
			out := newOut()
			c.fresh.Iterate(func(row, col uint32, e uint32) {
				for cm := colMask(x, col); cm != 0; cm &= cm - 1 {
					s := bits.TrailingZeros64(cm)
					r := p.ProcessMessage(x.Row(col)[s], e, 0)
					i := int(row)*k + s
					if out.cols[row]&(1<<s) != 0 {
						r = p.Reduce(out.vals[i], r)
					}
					out.vals[i] = r
					out.cols[row] |= 1 << s
					out.mask[row>>6] |= 1 << (row & 63)
					out.edges++
				}
			})
			return out
		},
	}
	return f
}

// folds lists every value sink the column walks feed: the generic scalar
// fold with and without the destination read, the four fused scalar folds,
// and the generic block fold at two widths.
func (c *walkCase) folds() []walkFold {
	u64 := func(r uint64) uint64 { return r }
	f32 := func(r float32) uint64 { return uint64(math.Float32bits(r)) }
	u32 := func(r uint32) uint64 { return uint64(r) }
	return []walkFold{
		scalarFold(c, "generic", hashProg{}, c.layers, c.fresh, c.x, c.props, u64),
		scalarFold(c, "generic_dstfree", hashProgFree{}, c.layers, c.fresh, c.x, c.props, u64),
		scalarFold(c, "sum_f64", sumFoldProg{}, c.layersF, c.freshf, c.xf64, make([]float64, c.n), math.Float64bits),
		scalarFold(c, "minplus_f32", ssspFused{}, c.layersF, c.freshf, c.xf32, make([]float32, c.n), f32),
		scalarFold(c, "maxmin_f32", widestFused{}, c.layersF, c.freshf, c.xf32, make([]float32, c.n), f32),
		scalarFold(c, "min_u32", ccFused{}, c.layersF, c.freshf, c.xu32, make([]uint32, c.n), u32),
		blockFold(c, "block", hashProgFree{}, 2),
		blockFold(c, "block", hashProgFree{}, 3),
	}
}

// flatEdges is the FlatEdges oracle of one pull call over partition l: the
// edges of every batch — up to walkBatch consecutive stored base columns,
// batches restarting after each delta column — whose columns are all live.
func flatEdges(l sparse.Layered[uint32], live func(j uint32) bool) int64 {
	base := l.Base
	var flat int64
	bi := 0
	run := func(end int) { // base columns [bi, end) lie between two delta columns
		for bi < end {
			stop := min(bi+walkBatch, end)
			all := true
			for _, j := range base.JC[bi:stop] {
				all = all && live(j)
			}
			if all {
				flat += int64(base.CP[stop] - base.CP[bi])
			}
			bi = stop
		}
	}
	if l.Delta != nil {
		for _, dj := range l.Delta.JC {
			at := sort.Search(len(base.JC), func(i int) bool { return base.JC[i] >= dj })
			run(at)
			if at < len(base.JC) && base.JC[at] == dj {
				bi = at + 1 // overridden: the delta's column, never a flat one
			}
		}
	}
	run(len(base.JC))
	return flat
}

// flatCalls returns the foldFlat calls a pull over parts must make when
// every part is plain and every stored column is live — one per nonempty
// part, spanning all of its edges — and ok=false when some part is not, and
// may fold flat by batches.
func flatCalls(parts []sparse.Layered[uint32], live func(j uint32) bool) (spans [][2]int, ok bool) {
	for _, l := range parts {
		if l.Delta != nil {
			return nil, false
		}
		for _, j := range l.Base.JC {
			if !live(j) {
				return nil, false
			}
		}
		if nnz := l.Base.NNZ(); nnz > 0 {
			spans = append(spans, [2]int{0, nnz})
		}
	}
	return spans, true
}

// check asserts, for every sink: the case's partition pulled == pushed == the
// naive fold, the pull probe count is the fresh build's column count, and for
// every given row cut the same edges built as one partition per cut
// (walkCase.layers), one call each, compose to that — output bits and summed
// edge tallies — in both directions. FlatEdges must be the flatEdges oracle
// summed over a scalar sink's pull partitions and 0 everywhere else: push and
// block sinks. A pull over plain, fully-live partitions makes exactly one
// foldFlat call per nonempty partition, over all of its edges.
func (c *walkCase) check(t *testing.T, picks []uint) {
	t.Helper()
	wantFlat := func(f walkFold, mode Mode, cuts [][2]uint32) (flat int64) {
		if mode == Pull && f.flat {
			for _, l := range c.layers(cuts) {
				flat += flatEdges(l, f.live)
			}
		}
		return flat
	}
	checkCalls := func(f walkFold, mode Mode, cuts [][2]uint32, got walkOut) {
		if mode != Pull || !f.flat {
			return
		}
		// A fully-live plain partition is one foldFlat call over all of its
		// edges, not one per column batch.
		if want, ok := flatCalls(c.layers(cuts), f.live); ok && !slices.Equal(got.flatSpans, want) {
			t.Fatalf("%s pull over fully-live plain partitions %v made foldFlat calls %v, want %v", f.name, cuts, got.flatSpans, want)
		}
	}
	for _, f := range c.folds() {
		want := f.naive()
		for _, mode := range []Mode{Pull, Push} {
			got := f.run(mode, nil)
			if err := got.equal(want); err != nil {
				t.Fatalf("%s %s whole partition vs naive fold: %v", f.name, mode, err)
			}
			if mode == Pull && got.probes != int64(c.fresh.NZColumns()) {
				t.Fatalf("%s pull probed %d columns, fresh build has %d", f.name, got.probes, c.fresh.NZColumns())
			}
			if w := wantFlat(f, mode, nil); got.flat != w {
				t.Fatalf("%s %s whole partition folded %d edges flat, want %d", f.name, mode, got.flat, w)
			}
			checkCalls(f, mode, nil, got)
			for _, pick := range picks {
				cuts := c.rowCuts(pick)
				cut := f.run(mode, cuts)
				if err := cut.equal(got); err != nil {
					t.Fatalf("%s %s partitions %v vs whole partition: %v", f.name, mode, cuts, err)
				}
				if w := wantFlat(f, mode, cuts); cut.flat != w {
					t.Fatalf("%s %s partitions %v folded %d edges flat, want %d", f.name, mode, cuts, cut.flat, w)
				}
				checkCalls(f, mode, cuts, cut)
			}
		}
	}
}

// TestBoundedCallsCompose is the partitioning's licence: the same edges and
// update batch built as one partition per range of ANY 64-aligned cut, each
// walked whole by its own call, equal the single partition's call bit for
// bit — per-destination fold order unchanged, EdgesProcessed summing to the
// same tally — on plain and overlay partitions, built or as bare DCSC
// literals, pull and push through the value sinks, and pull, push and the
// row walk through the column-mask sinks at one and three columns (the
// walk case's partition under a maskCaseOf frontier and settled set). So
// neither the partition count nor which worker takes which partition can
// show in a result. The noaux_true subtests are the bare literals; the
// label keeps its old spelling so the test ids stay stable.
func TestBoundedCallsCompose(t *testing.T) {
	allCuts := []uint{0, 1, 2, 3, 4, 5, 6, 7} // every subset of a 4-block partition's 3 interior boundaries
	for seed := uint64(1); seed <= 6; seed++ {
		for _, nmut := range []int{0, 40} {
			for _, bare := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed_%d/muts_%d/noaux_%v", seed, nmut, bare), func(t *testing.T) {
					for _, density := range []int{160, 256} {
						t.Run(fmt.Sprintf("density_%d", density), func(t *testing.T) {
							c := newWalkCase(seed, 4, 300, nmut, density, bare)
							if (c.l.Delta != nil) != (nmut > 0) {
								t.Fatalf("fixture: delta presence %v with %d mutations", c.l.Delta != nil, nmut)
							}
							// A full frontier must exercise the flat fold —
							// all of a plain partition, the base runs between
							// the overrides of an overlay — or check's
							// FlatEdges comparison is 0 == 0.
							if flat, nnz := flatEdges(c.l, c.x.Has), int64(c.fresh.NNZ()); density == 256 && (flat == 0 || (nmut == 0 && flat != nnz)) {
								t.Fatalf("fixture: full frontier, %d mutations: %d of %d edges fold flat", nmut, flat, nnz)
							}
							c.check(t, allCuts)
							for _, k := range []int{1, 3} {
								maskCaseOf(c, seed, density, 64, k).check(t, allCuts)
							}
						})
					}
				})
			}
		}
	}
}

// TestAllLiveNeedsEveryColumnIndexed holds the whole-partition liveness test
// to a JC its column bitmap indexes exactly: a repeated id, or one past NCols
// as a malformed mapped file may hold, leaves the bitmap short of len(JC), and
// such a partition takes the batch path even under a full frontier.
func TestAllLiveNeedsEveryColumnIndexed(t *testing.T) {
	full := []uint64{^uint64(0), ^uint64(0)}
	for _, c := range []struct {
		name string
		jc   []uint32
		want bool
	}{
		{"well_formed", []uint32{3, 40, 63}, true},
		{"empty", nil, false},
		{"repeated_id", []uint32{3, 3}, false},
		{"id_past_ncols", []uint32{3, 70}, false},
	} {
		d := &sparse.DCSC[uint32]{NRows: 64, NCols: 64, JC: c.jc, RowHi: 64}
		if got := allLive(d, full); got != c.want {
			t.Errorf("%s: allLive = %v, want %v", c.name, got, c.want)
		}
	}
	d := &sparse.DCSC[uint32]{NRows: 64, NCols: 64, JC: []uint32{3, 40, 63}, RowHi: 64}
	if allLive(d, []uint64{^uint64(0) &^ (1 << 40), ^uint64(0)}) {
		t.Error("allLive with column 40 off the frontier")
	}
}

// TestFlatIndexRace races the first all-live multiply on one partition: the
// goroutines all find the source-column index missing, one of them builds
// it, and every call — the builder's and the waiters' — must fold the naive
// result into its private output from the one shared array.
func TestFlatIndexRace(t *testing.T) {
	c := newWalkCase(11, 4, 20000, 0, 256, false)
	want := scalarFold(c, "generic", hashProg{}, c.layers, c.fresh, c.x, c.props, func(r uint64) uint64 { return r }).naive()
	const racers = 8
	type result struct {
		y     *sparse.Vector[uint64]
		edges int64
		index *uint32
	}
	results := make([]result, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := sparse.NewVector[uint64](c.n)
			<-start
			var st localStats
			multiply(Pull, sparse.Layered[uint32]{Base: c.l.Base}, c.x.Mask().Words(), scalarSink(hashProg{}, c.x, c.props, y), nil, &st)
			results[i] = result{y, st.edges, &c.l.Base.EdgeCols()[0]}
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		got := walkOut{mask: r.y.Mask().Words(), vals: make([]uint64, c.words()*64), edges: r.edges}
		copy(got.vals, r.y.Values())
		if err := got.equal(want); err != nil {
			t.Errorf("racer %d vs naive fold: %v", i, err)
		}
		if r.index != results[0].index {
			t.Errorf("racer %d read a second copy of the source-column index", i)
		}
	}
}

// TestRowIndexRace races the first row-walk multiply on one partition, plain
// and carrying a delta: the goroutines all find the row-major views — and on
// the layered partition the delta's column index, its override set — missing,
// one of them builds each, and every call — the builders' and the waiters' —
// must gather the naive result over the fresh build into its private output
// through its own one-column mask sink, from the one shared copy of each
// view. The layered partition is a pair of bare literals, so no view exists
// before the race.
func TestRowIndexRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		nmut int
		bare bool
	}{{"plain", 0, false}, {"layered", 400, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newMaskCase(12, 4, 20000, tc.nmut, 40, 128, 1, tc.bare)
			if (c.l.Delta != nil) != (tc.nmut > 0) {
				t.Fatalf("fixture: delta presence %v with %d mutations", c.l.Delta != nil, tc.nmut)
			}
			want := c.naiveRows()
			// views are the derived structures a racer read, by identity.
			type views struct {
				base, delta *sparse.RowIndex
				over        *uint64
			}
			viewsOf := func(l sparse.Layered[uint32]) views {
				v := views{base: l.Base.RowIndex()}
				if l.Delta != nil {
					v.delta, v.over = l.Delta.RowIndex(), &l.Delta.ColumnIndex().Bits[0]
				}
				return v
			}
			const racers = 8
			type result struct {
				out   maskOut
				views views
			}
			results := make([]result, racers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := newMaskRun(c, maskProg{})
					if _, ok := r.sink.(*maskSink[uint64, uint32, uint64, uint64, maskProg]); !ok {
						panic(fmt.Sprintf("fixture: a one-column maskProg run folds through %T", r.sink))
					}
					var st localStats
					<-start
					r.multiply(c.l, Pull, true, &st)
					results[i] = result{r.out(st), viewsOf(c.l)}
				}()
			}
			close(start)
			wg.Wait()
			for i, r := range results {
				if err := r.out.diff(want); err != nil || r.out.edges != want.edges {
					t.Errorf("racer %d vs first live in-neighbour: %v; examined %d slots, want %d", i, err, r.out.edges, want.edges)
				}
				if r.views != results[0].views {
					t.Errorf("racer %d read a second copy of a row-major view or of the override set", i)
				}
			}
		})
	}
}

// FuzzLayeredWalk drives both column walks and both value-sink families
// over random layered partitions — overrides, tombstones, delta-only
// columns, built or as bare literals — with random frontiers and a random
// 64-aligned finer partitioning, against the naive folds over a fresh build
// of the live edge set. Any out-of-range or misplaced write shows up as a
// diverging output bit (the fold is order- and duplicate-sensitive); a panic
// fails the target. density 255 is the full frontier, which sends whole
// batches down the flat fold. The row walk is FuzzMaskWalk's.
func FuzzLayeredWalk(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(0), false)   // empty partition, full frontier
	f.Add(uint64(2), uint8(2), uint8(200), uint8(0), uint8(128), uint8(1), false) // plain
	f.Add(uint64(3), uint8(4), uint8(250), uint8(60), uint8(200), uint8(5), false)
	f.Add(uint64(4), uint8(3), uint8(40), uint8(90), uint8(30), uint8(3), true) // delta-heavy, bare literals
	f.Add(uint64(5), uint8(4), uint8(0), uint8(50), uint8(255), uint8(7), false)
	f.Add(uint64(6), uint8(3), uint8(255), uint8(0), uint8(255), uint8(0), false)   // plain, every batch flat
	f.Add(uint64(7), uint8(4), uint8(220), uint8(70), uint8(255), uint8(2), true)   // flat runs between overrides, bare literals
	f.Add(uint64(8), uint8(3), uint8(200), uint8(0), uint8(255), uint8(6), true)    // plain, bare literal: the liveness test builds the column index
	f.Add(uint64(9), uint8(3), uint8(200), uint8(120), uint8(120), uint8(7), false) // four 64-row cuts, every one carrying a delta; mid-density frontier
	f.Fuzz(func(t *testing.T, seed uint64, nblk, nbase, nmut, density, pick uint8, bare bool) {
		fill := int(density)
		if fill == 255 {
			fill = 256 // the top of the range is the full frontier
		}
		c := newWalkCase(seed, 1+int(nblk%4), int(nbase), int(nmut), fill, bare)
		c.check(t, []uint{uint(pick)})
	})
}
