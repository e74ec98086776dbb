package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Kernel-level tests of the three traversals: every (walk, sink, row cut)
// combination over a plain or overlay partition must equal a naive fold over
// a fresh DCSC build of the live edge set. The fold is a non-commutative
// hash, so a reordered, repeated, dropped or misplaced edge fold changes the
// result — value equality asserts the exact per-destination fold sequence,
// not just the edge multiset. The pull walk's flat fold is covered by the
// same cases: a frontier that fills a column batch sends it down foldFlat,
// and FlatEdges must equal the edges of exactly those batches. The row walk
// runs over firstProg, whose naive fold is "the first live in-neighbour of
// each unsettled row, in ascending source order" — per column, for the block
// sink's k-wide gather.

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

// firstProg is hashProg declaring FirstMessageFinal over the property's low
// bit, so the random properties of a walkCase are a random settled set. It
// keeps no such promise — its Reduce is a hash — which no kernel-level test
// needs: they compare the y a walk wrote, and the row walk's is defined by
// the marker alone.
type firstProg struct{ hashProg }

func (firstProg) Unsettled(prop uint64) bool { return prop&1 == 0 }

// firstProgFree is hashProgFree with the same declaration: the k-wide
// gather's program.
type firstProgFree struct{ hashProgFree }

func (firstProgFree) Unsettled(prop uint64) bool { return prop&1 == 0 }

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
	n      int                    // matrix dimension
	l      sparse.Layered[uint32] // the partition under test
	fresh  *sparse.DCSC[uint32]   // BuildDCSC of the live edge set, same row range
	props  []uint64
	x      *sparse.Vector[uint64] // scalar frontier
	blocks map[int]*BlockVector[uint64]
	// blockProps[k] is a random n×k property block: under firstProg, a
	// random settled set per (vertex, column).
	blockProps map[int][]uint64

	// The same partition, fresh build and frontier with float32 edge values
	// and float messages, for the fused sum and path sinks (a pathSinkF32 is
	// a colSink[float32] only).
	lf     sparse.Layered[float32]
	freshf *sparse.DCSC[float32]
	xf64   *sparse.Vector[float64]
	xf32   *sparse.Vector[float32]
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
		Aux: d.Aux, AuxShift: d.AuxShift, RowLo: d.RowLo, RowHi: d.RowHi,
	}
}

// stripAux returns d without its AUX index (a hand-assembled DCSC): column
// lookups fall back to binary search.
func stripAux(d *sparse.DCSC[uint32]) *sparse.DCSC[uint32] {
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
func newWalkCase(seed uint64, nblk, nbase, nmut, density int, noAux bool) *walkCase {
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
	build := func() *sparse.DCSC[uint32] {
		coo := sparse.NewCOO[uint32](uint32(n), uint32(n))
		for _, k := range sortedWalkKeys(live) {
			coo.Add(k.row, k.col, live[k])
		}
		return sparse.BuildDCSC(coo, rowLo, rowHi)
	}
	base := build()

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
	c := &walkCase{n: n, l: sparse.Layered[uint32]{Base: base, Delta: sparse.MergeDelta(base, nil, batch)}, fresh: build()}
	if noAux {
		c.l.Base, c.l.Delta = stripAux(c.l.Base), stripAux(c.l.Delta)
	}

	c.lf = sparse.Layered[float32]{Base: f32Twin(c.l.Base), Delta: f32Twin(c.l.Delta)}
	c.freshf = f32Twin(c.fresh)

	c.props = make([]uint64, n)
	c.x = sparse.NewVector[uint64](n)
	c.xf64, c.xf32 = sparse.NewVector[float64](n), sparse.NewVector[float32](n)
	c.blocks = map[int]*BlockVector[uint64]{2: NewBlockVector[uint64](n, 2), 3: NewBlockVector[uint64](n, 3)}
	c.blockProps = map[int][]uint64{}
	prng := gen.NewRNG(seed ^ 0xB10C) // its own stream: the draws below keep their sequence
	for _, k := range []int{2, 3} {
		c.blockProps[k] = make([]uint64, n*k)
		for i := range c.blockProps[k] {
			c.blockProps[k][i] = prng.Uint64()
		}
	}
	for v := 0; v < n; v++ {
		c.props[v] = rng.Uint64()
		if rng.Intn(256) >= density {
			continue
		}
		m := rng.Uint64()
		c.x.Set(uint32(v), m)
		// Spread the float64 messages over 40 binades so their sum depends
		// on the order of the adds.
		c.xf64.Set(uint32(v), math.Ldexp(1+float64(m>>12)/(1<<52), int(m%41)-20))
		c.xf32.Set(uint32(v), float32(m%4096)/16)
		for k, b := range c.blocks {
			for cm := 1 + rng.Intn(1<<k-1); cm != 0; cm &= cm - 1 {
				b.Set(uint32(v), bits.TrailingZeros(uint(cm)), rng.Uint64())
			}
		}
	}
	return c
}

// rowCuts expands a subset of the partition's interior 64-row boundaries
// (bit i of pick selects boundary i) into [rlo, rhi) task bounds.
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

// walkOut is one multiply's output and tallies.
type walkOut struct {
	mask          []uint64
	vals          []uint64 // scalar: n values; block: n*k, meaningful at set (row, column) pairs
	cols          []uint64 // block only: per-row column masks
	edges, probes int64
	flat          int64 // the part of edges folded through foldFlat
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
	// flat: the sink has a flat fold, so a pull call covering the partition's
	// whole row range tallies its fully-live batches in FlatEdges.
	flat bool
	live func(j uint32) bool // frontier membership
	// run folds the partition through the walk mode selects — or, with
	// rowWalk set, through the row walk where the layer can take it — one
	// call per cut, into one output vector.
	run func(mode Mode, rowWalk bool, cuts [][2]uint32) walkOut
	// naive folds the fresh build of the live edge set column by column
	// with no kernel code.
	naive func() walkOut
	// naiveRows, set for the sink of a FirstMessageFinal program only, is
	// the row walk's oracle: each unsettled row of the fresh build takes the
	// first live source of its ascending list; edges counts the entries
	// looked at on the way.
	naiveRows func() walkOut
}

// scalarFold builds the walkFold of program p's scalar sink over layered
// partition l, against fresh (the live edge set built from scratch). bitsOf
// maps a reduced value to the bits compared.
func scalarFold[V, E, M, R any, P Program[V, E, M, R]](c *walkCase, name string, p P, l sparse.Layered[E], fresh *sparse.DCSC[E], x *sparse.Vector[M], props []V, bitsOf func(R) uint64) walkFold {
	f := walkFold{
		name: name, flat: true, live: x.Has,
		run: func(mode Mode, rowWalk bool, cuts [][2]uint32) walkOut {
			y := sparse.NewVector[R](c.n)
			sink := scalarSink(p, x, props, y)
			var rows rowSink[E]
			if rowWalk {
				rows = sink.(rowSink[E])
			}
			var st localStats
			for _, cut := range cuts {
				multiply(mode, l, x.Mask().Words(), cut[0], cut[1], sink, rows, &st)
			}
			out := walkOut{mask: y.Mask().Words(), vals: make([]uint64, c.words()*64), edges: st.edges, probes: st.probes, flat: st.flat}
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
	if settling, ok := any(p).(FirstMessageFinal[V]); ok {
		f.naiveRows = func() walkOut {
			out := walkOut{mask: make([]uint64, c.words()), vals: make([]uint64, c.words()*64)}
			// Column-major, columns ascending: the first live entry Iterate
			// reports for a row is its first live source.
			fresh.Iterate(func(row, col uint32, e E) {
				if !settling.Unsettled(props[row]) || out.mask[row>>6]&(1<<(row&63)) != 0 {
					return
				}
				out.edges++
				if x.Has(col) {
					out.vals[row] = bitsOf(p.ProcessMessage(x.Get(col), e, props[row]))
					out.mask[row>>6] |= 1 << (row & 63)
				}
			})
			return out
		}
	}
	return f
}

// blockFold is the walkFold of p's k-wide block sink: hashProgFree for the
// column folds alone, firstProgFree for the k-wide gather beside them, over
// the case's random per-(vertex, column) settled masks.
func blockFold[P interface {
	Program[uint64, uint32, uint64, uint64]
	DstIndependent
}](c *walkCase, name string, p P, k int) walkFold {
	x, props := c.blocks[k], c.blockProps[k]
	newOut := func() walkOut {
		return walkOut{mask: make([]uint64, c.words()), vals: make([]uint64, c.words()*64*k), cols: make([]uint64, c.words()*64)}
	}
	f := walkFold{
		name: fmt.Sprintf("%s_k%d", name, k), live: x.summary.Get,
		run: func(mode Mode, rowWalk bool, cuts [][2]uint32) walkOut {
			y := NewBlockVector[uint64](c.n, k)
			sink := blockSink[uint64, uint32, uint64, uint64](p, x, props, y)
			var rows rowSink[uint32]
			if rowWalk {
				rows = sink.(rowSink[uint32])
			}
			var st localStats
			for _, cut := range cuts {
				multiply(mode, c.l, x.summary.Words(), cut[0], cut[1], sink, rows, &st)
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
				for cm := x.ColMask(col); cm != 0; cm &= cm - 1 {
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
	if settling, ok := any(p).(FirstMessageFinal[uint64]); ok {
		// Per column, the first live in-neighbour in ascending source order
		// of each (row, column) still unsettled; a slot counts as examined
		// while any column of its row is still waiting.
		f.naiveRows = func() walkOut {
			out := newOut()
			waiting := make([]uint64, c.n)
			for i, prop := range props {
				if settling.Unsettled(prop) {
					waiting[i/k] |= 1 << (i % k)
				}
			}
			c.fresh.Iterate(func(row, col uint32, e uint32) {
				if waiting[row] == 0 {
					return
				}
				out.edges++
				hit := x.ColMask(col) & waiting[row]
				waiting[row] &^= hit
				for ; hit != 0; hit &= hit - 1 {
					s := bits.TrailingZeros64(hit)
					out.vals[int(row)*k+s] = p.ProcessMessage(x.Row(col)[s], e, 0)
					out.cols[row] |= 1 << s
					out.mask[row>>6] |= 1 << (row & 63)
				}
			})
			return out
		}
	}
	return f
}

// folds lists every sink the walks feed: the generic scalar fold with and
// without the destination read and with the row walk's gather beside it, the
// three fused scalar folds, and the block fold at two widths, each with the
// k-wide gather beside it.
func (c *walkCase) folds() []walkFold {
	u64 := func(r uint64) uint64 { return r }
	f32 := func(r float32) uint64 { return uint64(math.Float32bits(r)) }
	return []walkFold{
		scalarFold(c, "generic", hashProg{}, c.l, c.fresh, c.x, c.props, u64),
		scalarFold(c, "generic_dstfree", hashProgFree{}, c.l, c.fresh, c.x, c.props, u64),
		scalarFold(c, "generic_gather", firstProg{}, c.l, c.fresh, c.x, c.props, u64),
		scalarFold(c, "sum_f64", sumFoldProg{}, c.lf, c.freshf, c.xf64, make([]float64, c.n), math.Float64bits),
		scalarFold(c, "minplus_f32", ssspFused{}, c.lf, c.freshf, c.xf32, make([]float32, c.n), f32),
		scalarFold(c, "maxmin_f32", widestFused{}, c.lf, c.freshf, c.xf32, make([]float32, c.n), f32),
		blockFold(c, "block", hashProgFree{}, 2),
		blockFold(c, "block", hashProgFree{}, 3),
		blockFold(c, "block_gather", firstProgFree{}, 2),
		blockFold(c, "block_gather", firstProgFree{}, 3),
	}
}

// flatEdges is the FlatEdges oracle of one whole-partition pull call: the
// edges of every batch — up to walkBatch consecutive stored base columns,
// batches restarting after each delta column — whose columns are all live.
func (c *walkCase) flatEdges(live func(j uint32) bool) int64 {
	base := c.l.Base
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
	if c.l.Delta != nil {
		for _, dj := range c.l.Delta.JC {
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

// check asserts, for every sink: whole-partition pull == whole-partition
// push == the naive fold, the pull probe count is the fresh build's column
// count, and for every given row cut the bounded calls compose to the
// whole-partition call — output bits and summed edge tallies — in both
// directions. FlatEdges must be the flatEdges oracle for a scalar sink's
// unclipped pull call and 0 everywhere else: push, block sinks, and any cut
// that clips the call's rows. A sink with a gather then runs the row walk
// the same way: on a plain partition it must equal naiveRows having probed
// no column, on an overlay it must have fallen back to the column walk and
// equal that — and the bounded calls compose either way.
func (c *walkCase) check(t *testing.T, picks []uint) {
	t.Helper()
	whole := [][2]uint32{{0, ^uint32(0)}}
	for _, f := range c.folds() {
		want := f.naive()
		for _, mode := range []Mode{Pull, Push} {
			got := f.run(mode, false, whole)
			if err := got.equal(want); err != nil {
				t.Fatalf("%s %s whole partition vs naive fold: %v", f.name, mode, err)
			}
			if mode == Pull && got.probes != int64(c.fresh.NZColumns()) {
				t.Fatalf("%s pull probed %d columns, fresh build has %d", f.name, got.probes, c.fresh.NZColumns())
			}
			var wantFlat int64
			if mode == Pull && f.flat {
				wantFlat = c.flatEdges(f.live)
			}
			if got.flat != wantFlat {
				t.Fatalf("%s %s whole partition folded %d edges flat, want %d", f.name, mode, got.flat, wantFlat)
			}
			for _, pick := range picks {
				cuts := c.rowCuts(pick)
				cut := f.run(mode, false, cuts)
				if err := cut.equal(got); err != nil {
					t.Fatalf("%s %s cuts %v vs whole partition: %v", f.name, mode, cuts, err)
				}
				wantCut := wantFlat // one cut is the partition's own row range
				if len(cuts) > 1 {
					wantCut = 0 // every call is row-clipped
				}
				if cut.flat != wantCut {
					t.Fatalf("%s %s cuts %v folded %d edges flat, want %d", f.name, mode, cuts, cut.flat, wantCut)
				}
			}
		}
		if f.naiveRows == nil {
			continue
		}
		got := f.run(Pull, true, whole)
		if c.l.Delta == nil {
			if err := got.equal(f.naiveRows()); err != nil {
				t.Fatalf("%s row walk whole partition vs first live in-neighbour: %v", f.name, err)
			}
			if got.probes != 0 || got.flat != 0 {
				t.Fatalf("%s row walk probed %d columns and folded %d edges flat", f.name, got.probes, got.flat)
			}
		} else if err := got.equal(want); err != nil {
			t.Fatalf("%s row walk on an overlay vs the column walk it falls back to: %v", f.name, err)
		}
		for _, pick := range picks {
			cuts := c.rowCuts(pick)
			if err := f.run(Pull, true, cuts).equal(got); err != nil {
				t.Fatalf("%s row walk cuts %v vs whole partition: %v", f.name, cuts, err)
			}
		}
	}
}

// TestBoundedCallsCompose is the task shaper's licence: the union of
// row-bounded kernel calls over ANY 64-aligned cut of a partition equals the
// whole-partition call bit for bit — per-destination fold order unchanged,
// EdgesProcessed summing to the same tally — on plain and overlay
// partitions, with and without the AUX index, pull, push and the row walk,
// scalar and block sinks.
func TestBoundedCallsCompose(t *testing.T) {
	allCuts := []uint{0, 1, 2, 3, 4, 5, 6, 7} // every subset of a 4-block partition's 3 interior boundaries
	for seed := uint64(1); seed <= 6; seed++ {
		for _, nmut := range []int{0, 40} {
			for _, noAux := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed_%d/muts_%d/noaux_%v", seed, nmut, noAux), func(t *testing.T) {
					for _, density := range []int{160, 256} {
						t.Run(fmt.Sprintf("density_%d", density), func(t *testing.T) {
							c := newWalkCase(seed, 4, 300, nmut, density, noAux)
							if (c.l.Delta != nil) != (nmut > 0) {
								t.Fatalf("fixture: delta presence %v with %d mutations", c.l.Delta != nil, nmut)
							}
							// A full frontier must exercise the flat fold —
							// all of a plain partition, the base runs between
							// the overrides of an overlay — or check's
							// FlatEdges comparison is 0 == 0.
							if flat, nnz := c.flatEdges(c.x.Has), int64(c.fresh.NNZ()); density == 256 && (flat == 0 || (nmut == 0 && flat != nnz)) {
								t.Fatalf("fixture: full frontier, %d mutations: %d of %d edges fold flat", nmut, flat, nnz)
							}
							c.check(t, allCuts)
						})
					}
				})
			}
		}
	}
}

// TestFlatIndexRace races the first all-live multiply on one partition: the
// goroutines all find the source-column index missing, one of them builds
// it, and every call — the builder's and the waiters' — must fold the naive
// result into its private output from the one shared array.
func TestFlatIndexRace(t *testing.T) {
	c := newWalkCase(11, 4, 20000, 0, 256, false)
	want := scalarFold(c, "generic", hashProg{}, c.l, c.fresh, c.x, c.props, func(r uint64) uint64 { return r }).naive()
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
			multiply(Pull, sparse.Layered[uint32]{Base: c.l.Base}, c.x.Mask().Words(), 0, ^uint32(0), scalarSink(hashProg{}, c.x, c.props, y), nil, &st)
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

// TestRowIndexRace races the first row-walk multiply on one partition: the
// goroutines all find the row-major view missing, one of them builds it, and
// every call — the builder's and the waiters' — must gather the naive result
// into its private output from the one shared view.
func TestRowIndexRace(t *testing.T) {
	c := newWalkCase(12, 4, 20000, 0, 40, false)
	want := scalarFold(c, "generic_gather", firstProg{}, c.l, c.fresh, c.x, c.props, func(r uint64) uint64 { return r }).naiveRows()
	const racers = 8
	type result struct {
		y     *sparse.Vector[uint64]
		edges int64
		index *sparse.RowIndex[uint32]
	}
	results := make([]result, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := sparse.NewVector[uint64](c.n)
			sink := scalarSink(firstProg{}, c.x, c.props, y)
			var st localStats
			<-start
			multiply(Pull, c.l, c.x.Mask().Words(), 0, ^uint32(0), sink, sink.(rowSink[uint32]), &st)
			results[i] = result{y, st.edges, c.l.Base.RowIndex()}
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		got := walkOut{mask: r.y.Mask().Words(), vals: make([]uint64, c.words()*64), edges: r.edges}
		copy(got.vals, r.y.Values())
		if err := got.equal(want); err != nil {
			t.Errorf("racer %d vs first live in-neighbour: %v", i, err)
		}
		if r.index != results[0].index {
			t.Errorf("racer %d read a second copy of the row-major view", i)
		}
	}
}

// FuzzLayeredWalk drives all three walks and both sink families over random
// layered partitions — overrides, tombstones, delta-only columns, AUX
// present or absent — with random frontiers, random settled sets and random
// 64-aligned row cuts, against the naive folds over a fresh build of the
// live edge set. Any out-of-range or misplaced write shows up as a diverging
// output bit (the fold is order- and duplicate-sensitive); a panic fails the
// target. density 255 is the full frontier, which sends whole batches down
// the flat fold and stops every row walk at a row's first entry.
func FuzzLayeredWalk(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(0), false)   // empty partition, full frontier
	f.Add(uint64(2), uint8(2), uint8(200), uint8(0), uint8(128), uint8(1), false) // plain
	f.Add(uint64(3), uint8(4), uint8(250), uint8(60), uint8(200), uint8(5), false)
	f.Add(uint64(4), uint8(3), uint8(40), uint8(90), uint8(30), uint8(3), true) // delta-heavy, no AUX
	f.Add(uint64(5), uint8(4), uint8(0), uint8(50), uint8(255), uint8(7), false)
	f.Add(uint64(6), uint8(3), uint8(255), uint8(0), uint8(255), uint8(0), false) // plain, every batch flat
	f.Add(uint64(7), uint8(4), uint8(220), uint8(70), uint8(255), uint8(2), true) // flat runs between overrides, no AUX
	f.Fuzz(func(t *testing.T, seed uint64, nblk, nbase, nmut, density, pick uint8, noAux bool) {
		fill := int(density)
		if fill == 255 {
			fill = 256 // the top of the range is the full frontier
		}
		c := newWalkCase(seed, 1+int(nblk%4), int(nbase), int(nmut), fill, noAux)
		c.check(t, []uint{uint(pick)})
	})
}
