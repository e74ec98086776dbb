package core

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Kernel-level tests of the two column walks: every (direction, sink, row
// cut) combination over a plain or overlay partition must equal a naive
// fold over a fresh DCSC build of the live edge set. The fold is a
// non-commutative hash, so a reordered, repeated, dropped or misplaced edge
// fold changes the result — value equality asserts the exact per-destination
// fold sequence, not just the edge multiset.

// hashProg folds uint64 messages order-sensitively and reads the destination
// property, so the scalar runs take the generic (non-DstIndependent) loop.
type hashProg struct{}

func (hashProg) SendMessage(_ VertexID, p uint64) (uint64, bool) { return p, true }
func (hashProg) ProcessMessage(m uint64, e uint32, dst uint64) uint64 {
	return m*0x9E3779B97F4A7C15 + uint64(e) + dst
}
func (hashProg) Reduce(a, b uint64) uint64            { return a*1099511628211 + b }
func (hashProg) Apply(uint64, VertexID, *uint64) bool { return false }
func (hashProg) Direction() graph.Direction           { return graph.Out }
func (hashProg) Mul(m uint64, e uint32) uint64        { return m*0x9E3779B97F4A7C15 + uint64(e) }
func (hashProg) Add(a, b uint64) uint64               { return a*1099511628211 + b }
func (hashProg) Identity() uint64                     { return 0 }

var _ BlockProgram[uint64, uint32, uint64, uint64] = hashProg{}

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
// density/256 is the frontier fill. The live edge set is tracked by brute
// force, independent of the structures under test.
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

	c.props = make([]uint64, n)
	c.x = sparse.NewVector[uint64](n)
	c.blocks = map[int]*BlockVector[uint64]{1: NewBlockVector[uint64](n, 1), 3: NewBlockVector[uint64](n, 3)}
	for v := 0; v < n; v++ {
		c.props[v] = rng.Uint64()
		if rng.Intn(256) >= density {
			continue
		}
		c.x.Set(uint32(v), rng.Uint64())
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

// scalar runs the scalar sink through the walk `mode` selects, one call per
// cut, into one output vector.
func (c *walkCase) scalar(mode Mode, cuts [][2]uint32) walkOut {
	y := sparse.NewVector[uint64](c.n)
	sink := scalarSink[uint64, uint32, uint64, uint64](hashProg{}, c.x, c.props, y)
	var st localStats
	for _, cut := range cuts {
		multiply(mode, c.l, c.x.Mask().Words(), cut[0], cut[1], sink, &st)
	}
	out := walkOut{mask: y.Mask().Words(), vals: make([]uint64, c.words()*64), edges: st.edges, probes: st.probes}
	copy(out.vals, y.Values())
	return out
}

// block is scalar for the k-wide sink.
func (c *walkCase) block(k int, mode Mode, cuts [][2]uint32) walkOut {
	x, y := c.blocks[k], NewBlockVector[uint64](c.n, k)
	sink := blockSink[uint64, uint32, uint64, uint64](hashProg{}, x, y)
	var st localStats
	for _, cut := range cuts {
		multiply(mode, c.l, x.summary.Words(), cut[0], cut[1], sink, &st)
	}
	out := walkOut{mask: y.summary.Words(), vals: make([]uint64, c.words()*64*k), cols: make([]uint64, c.words()*64), edges: st.edges, probes: st.probes}
	copy(out.vals, y.vals)
	copy(out.cols, y.cols)
	return out
}

// naive folds the fresh build of the live edge set column by column with no
// kernel code: the oracle for k == 0 (scalar) and the block widths.
func (c *walkCase) naive(k int) walkOut {
	p := hashProg{}
	out := walkOut{mask: make([]uint64, c.words()), vals: make([]uint64, c.words()*64*max(k, 1))}
	if k > 0 {
		out.cols = make([]uint64, c.words()*64)
	}
	c.fresh.Iterate(func(row, col uint32, e uint32) {
		cm, stride := uint64(1), 1
		if k > 0 {
			cm, stride = c.blocks[k].ColMask(col), k
		} else if !c.x.Has(col) {
			cm = 0
		}
		for ; cm != 0; cm &= cm - 1 {
			s := bits.TrailingZeros64(cm)
			var r uint64
			if k > 0 {
				r = p.Mul(c.blocks[k].Row(col)[s], e)
			} else {
				r = p.ProcessMessage(c.x.Get(col), e, c.props[row])
			}
			i := int(row)*stride + s
			seen := out.mask[row>>6]&(1<<(row&63)) != 0
			if k > 0 {
				seen = seen && out.cols[row]&(1<<s) != 0
				out.cols[row] |= 1 << s
			}
			if seen {
				out.vals[i] = p.Reduce(out.vals[i], r)
			} else {
				out.vals[i] = r
			}
			out.mask[row>>6] |= 1 << (row & 63)
			out.edges++
		}
	})
	return out
}

// check asserts, for the scalar sink and both block widths: whole-partition
// pull == whole-partition push == the naive fold, the pull probe count is
// the fresh build's column count, and for every given row cut the bounded
// calls compose to the whole-partition call — output bits and summed edge
// tallies — in both directions.
func (c *walkCase) check(t *testing.T, picks []uint) {
	t.Helper()
	whole := [][2]uint32{{0, ^uint32(0)}}
	for _, k := range []int{0, 1, 3} {
		run := func(mode Mode, cuts [][2]uint32) walkOut {
			if k == 0 {
				return c.scalar(mode, cuts)
			}
			return c.block(k, mode, cuts)
		}
		want := c.naive(k)
		for _, mode := range []Mode{Pull, Push} {
			got := run(mode, whole)
			if err := got.equal(want); err != nil {
				t.Fatalf("k=%d %s whole partition vs naive fold: %v", k, mode, err)
			}
			if mode == Pull && got.probes != int64(c.fresh.NZColumns()) {
				t.Fatalf("k=%d pull probed %d columns, fresh build has %d", k, got.probes, c.fresh.NZColumns())
			}
			for _, pick := range picks {
				cuts := c.rowCuts(pick)
				if err := run(mode, cuts).equal(got); err != nil {
					t.Fatalf("k=%d %s cuts %v vs whole partition: %v", k, mode, cuts, err)
				}
			}
		}
	}
}

// TestBoundedCallsCompose is the task shaper's licence: the union of
// row-bounded kernel calls over ANY 64-aligned cut of a partition equals the
// whole-partition call bit for bit — per-destination fold order unchanged,
// EdgesProcessed summing to the same tally — on plain and overlay
// partitions, with and without the AUX index, pull and push, scalar and
// block sinks.
func TestBoundedCallsCompose(t *testing.T) {
	allCuts := []uint{0, 1, 2, 3, 4, 5, 6, 7} // every subset of a 4-block partition's 3 interior boundaries
	for seed := uint64(1); seed <= 6; seed++ {
		for _, nmut := range []int{0, 40} {
			for _, noAux := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed_%d/muts_%d/noaux_%v", seed, nmut, noAux), func(t *testing.T) {
					c := newWalkCase(seed, 4, 300, nmut, 160, noAux)
					if (c.l.Delta != nil) != (nmut > 0) {
						t.Fatalf("fixture: delta presence %v with %d mutations", c.l.Delta != nil, nmut)
					}
					c.check(t, allCuts)
				})
			}
		}
	}
}

// FuzzLayeredWalk drives both walks and both sink families over random
// layered partitions — overrides, tombstones, delta-only columns, AUX
// present or absent — with random frontiers and random 64-aligned row cuts,
// against the naive fold over a fresh build of the live edge set. Any
// out-of-range or misplaced write shows up as a diverging output bit (the
// fold is order- and duplicate-sensitive); a panic fails the target.
func FuzzLayeredWalk(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(0), false)   // empty partition, full frontier
	f.Add(uint64(2), uint8(2), uint8(200), uint8(0), uint8(128), uint8(1), false) // plain
	f.Add(uint64(3), uint8(4), uint8(250), uint8(60), uint8(200), uint8(5), false)
	f.Add(uint64(4), uint8(3), uint8(40), uint8(90), uint8(30), uint8(3), true) // delta-heavy, no AUX
	f.Add(uint64(5), uint8(4), uint8(0), uint8(50), uint8(255), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed uint64, nblk, nbase, nmut, density, pick uint8, noAux bool) {
		c := newWalkCase(seed, 1+int(nblk%4), int(nbase), int(nmut), int(density), noAux)
		c.check(t, []uint{uint(pick)})
	})
}
