package core

import (
	"math/bits"

	"graphmat/internal/kernels"
)

// This file is the block engine's fold half of the kernel layer: the column
// sinks the two walks of kernel.go feed when the frontier and the output
// are n×k block vectors — the generalized sparse matrix–sparse MATRIX
// multiplication (SpMM), one sweep of the adjacency structure advancing up
// to 64 source columns at once. The walks read only the block frontier's
// vertex-level summary, so the traversal is the scalar engine's, bit for
// bit; the point of the widening is amortization: the column probes and
// edge-list walks that dominate a scalar superstep are paid once per edge
// instead of once per (edge, source).
//
// Within one destination the per-source fold order follows the same edge
// order the scalar sinks see — so for each source s, a block run folds
// exactly the values, in exactly the order, of a scalar run from that
// source alone. That is the bit-identity contract the differential suite
// asserts.
//
// The generic fold calls the program's own ProcessMessage and Reduce, as
// foldSink's DstIndependent arm does: ProcessMessage gets the zero V for the
// destination it has promised not to read, which is what makes sharing one
// edge traversal across k columns sound. First writes store the raw result
// under a mask bit, exactly like the scalar fold. Edge folds are tallied per
// (edge, live source column).
//
// The one program kind that row-walks — SemiringBoolean, FirstMessageFinal
// and DstIndependent, as bfs and reachability declare — folds no values at
// all (blockMaskSink): a column walk ORs the sender's column mask into the
// destination's, a row walk gathers the mask of the columns still waiting,
// and apply hands each newly reached (vertex, column) its column's one
// value of the superstep. Its sink keeps the run's settled mask: one word
// per vertex holding the columns already decided, seeded from Unsettled by
// runPhases, over the run's vertex chunks in parallel, and kept current by
// the apply phase, so a row walk reads one word per row where it would test
// k properties. At one column the same fold is maskSink (kernel_fold.go),
// whose settled mask is a bitmap. Every other program takes the column
// walks only, through the fused or the generic fold.

// blockSink resolves block program p's column fold from message block x
// into reduction block y, once per run — the block analogue of scalarSink,
// with the same fused float64-sum and float32 path-semiring fast paths, the
// mask sink of a boolean, FirstMessageFinal, DstIndependent program at every
// width (props is the run's n×k property block, which sizes the settled
// mask runPhases seeds), and otherwise the generic fold. The block sinks
// read per-vertex column masks, so they serve blocks of two or more
// columns; a one-column block, the sparse vector it is, takes maskSink or
// scalarSink. This is where a run's width selects its sink. p must be
// DstIndependent when x is two or more columns wide, which RunContext checks
// before any superstep; a one-column run may read its destination
// (scalarSink).
func blockSink[V, E, M, R any, P Program[V, E, M, R]](p P, x *BlockVector[M], props []V, y *BlockVector[R]) colSink[E] {
	sr := semiringOf(p)
	_, fmf := any(p).(FirstMessageFinal[V])
	_, dstFree := any(p).(DstIndependent)
	switch {
	case sr == SemiringBoolean && fmf && dstFree && x.k == 1:
		return &maskSink[V, E, M, R, P]{p: p, x: x.scalar, yw: y.summary.Words(), settled: make([]uint64, len(y.summary.Words()))}
	case sr == SemiringBoolean && fmf && dstFree:
		return &blockMaskSink[V, E, M, R, P]{p: p, x: x, y: y, settled: make([]uint64, len(props)/x.k), vals: make([]R, x.k)}
	case x.k == 1:
		return scalarSink(p, x.scalar, props, y.scalar)
	}
	switch sr {
	case SemiringSumF64:
		xf, okX := any(x).(*BlockVector[float64])
		yf, okY := any(y).(*BlockVector[float64])
		if okX && okY {
			return &blockSumSinkF64[E]{x: xf, y: yf}
		}
	case SemiringMinPlusF32, SemiringMaxMinF32:
		xf, okX := any(x).(*BlockVector[float32])
		yf, okY := any(y).(*BlockVector[float32])
		if s, okE := any(&blockPathSinkF32{kind: sr, x: xf, y: yf}).(colSink[E]); okX && okY && okE {
			return s
		}
	}
	return &blockFoldSink[V, E, M, R, P]{p: p, x: x, y: y}
}

// touchRow returns vertex v's column mask in a block vector's two-level
// occupancy (summary words, per-vertex masks), zeroing it on the first
// touch of v after a Reset. Single-writer per 64-aligned vertex range, like
// all engine vector writes. It is generic only so that it inlines where the
// engine is instantiated; T is always uint32.
func touchRow[T ~uint32](summary, cols []uint64, v T) uint64 {
	w := &summary[v>>6]
	bit := uint64(1) << (v & 63)
	if *w&bit == 0 {
		*w |= bit
		cols[v] = 0
	}
	return cols[v]
}

// blockFoldSink is the generic block fold: per edge, one ProcessMessage per
// live source column of the sender, Reduce on collisions.
type blockFoldSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	p P
	x *BlockVector[M]
	y *BlockVector[R]
}

func (s *blockFoldSink[V, E, M, R, P]) fold(ir []uint32, val []E, cols []colRef) int {
	p, x, y := s.p, s.x, s.y
	ysw, ycols := y.summary.Words(), y.cols
	var zeroV V
	edges := 0
	for _, c := range cols {
		cm, xrow := x.cols[c.j], x.Row(c.j)
		irc, vc := ir[c.lo:c.hi], val[c.lo:c.hi:c.hi]
		edges += len(irc) * bits.OnesCount64(cm)
		for kk, dst := range irc {
			e := vc[kk]
			ym := touchRow(ysw, ycols, dst)
			yrow := y.Row(dst)
			for m := cm; m != 0; m &= m - 1 {
				col := bits.TrailingZeros64(m)
				r := p.ProcessMessage(xrow[col], e, zeroV)
				if ym&(1<<uint(col)) != 0 {
					yrow[col] = p.Reduce(yrow[col], r)
				} else {
					yrow[col] = r
				}
			}
			ycols[dst] = ym | cm
		}
	}
	return edges
}

// fullCols returns the mask of all k columns of a block.
func fullCols(k int) uint64 {
	return ^uint64(0) >> uint(64-k)
}

// blockMaskSink is the block fold of a program declaring SemiringBoolean,
// FirstMessageFinal and DstIndependent. Its y is masks only: a (vertex,
// column) bit says a message of the column arrived, and the boolean promise
// says what it processed to — the column's one value of the superstep,
// which prepare computes once per column into vals for the apply phase to
// hand out. So no walk loads or stores a value: the column walks OR each
// sender's column mask into its destinations', and the row walk gathers,
// per unsettled row, the columns of its frontier in-neighbours that the row
// still waits in.
//
// A column walk's y is the generic fold's, bit for bit, so Applies keeps its
// meaning. The row walk marks each (row, column) still unsettled at the
// row's first frontier in-neighbour carrying the column; it waits only in
// the frontier's live columns (a column no sender carries cannot reach the
// row this superstep), so it leaves a row as soon as nothing it could still
// receive is left.
type blockMaskSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	p       P
	x       *BlockVector[M]
	y       *BlockVector[R] // masks only; its values are never written
	settled []uint64        // the run's settled mask, seeded and kept by runPhases
	// live is the OR of the frontier's column masks and vals[c] column c's
	// processed message, both set by prepare before each multiply.
	live uint64
	vals []R
}

// prepare reads the superstep's frontier once, before its multiply: the
// live columns, and for each the value its messages process to — any one
// of them, by the boolean promise, folded over the zero edge value.
func (s *blockMaskSink[V, E, M, R, P]) prepare() {
	x, k := s.x, s.x.k
	var zeroE E
	var zeroV V
	live := uint64(0)
	for wi, w := range x.summary.Words() {
		for ; w != 0; w &= w - 1 {
			v := uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))
			for m := x.cols[v] &^ live; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				s.vals[c] = s.p.ProcessMessage(x.vals[int(v)*k+c], zeroE, zeroV)
			}
			live |= x.cols[v]
		}
	}
	s.live = live
}

func (s *blockMaskSink[V, E, M, R, P]) fold(ir []uint32, _ []E, cols []colRef) int {
	xcols, ysw, ycols := s.x.cols, s.y.summary.Words(), s.y.cols
	edges := 0
	for _, c := range cols {
		cm := xcols[c.j]
		irc := ir[c.lo:c.hi]
		edges += len(irc) * bits.OnesCount64(cm)
		for _, dst := range irc {
			ycols[dst] = touchRow(ysw, ycols, dst) | cm
		}
	}
	return edges
}

// foldRows is the k-wide gather: a row waits in the live columns it has not
// settled, each frontier in-neighbour in ascending source id retires the
// ones it carries, and the scan leaves the row when none is left. It returns
// the edge slots it examined, each counted once however many columns waited
// at it.
func (s *blockMaskSink[V, E, M, R, P]) foldRows(rows liveRows, xw []uint64) int {
	xcols, ysw, ycols, live := s.x.cols, s.y.summary.Words(), s.y.cols, s.live
	ptr, rlo := rows.base.Ptr, rows.base.RowLo
	examined := 0
	for i, settled := range s.settled[rlo : rlo+uint32(len(ptr)-1)] {
		waiting := live &^ settled
		if waiting == 0 {
			continue
		}
		var got uint64
		if rows.delta == nil {
			in := rows.base.Src[ptr[i]:ptr[i+1]]
			j := 0
			for ; j < len(in) && waiting != 0; j++ {
				if src := in[j]; xw[src>>6]&(1<<(src&63)) != 0 {
					hit := xcols[src] & waiting
					got |= hit
					waiting &^= hit
				}
			}
			examined += j
		} else {
			r := rows.row(i)
			for waiting != 0 {
				src, ok := r.next(xw)
				if !ok {
					break
				}
				hit := xcols[src] & waiting
				got |= hit
				waiting &^= hit
			}
			examined += r.seen
		}
		if got != 0 {
			dst := rlo + uint32(i)
			ysw[dst>>6] |= 1 << (dst & 63)
			ycols[dst] = got
		}
	}
	return examined
}

// blockSumSinkF64 is the (+, passthrough) float64 block fold: per edge, one
// masked k-lane add through the kernels backend. Lanes are independent and
// first writes store the raw message, exactly like the generic loop. It has
// no flat fold, so no mask-free one either: the lanes a row receives are
// the union of its sources' column masks, which the frontier sets and the
// structure cannot, so every edge keeps its lane test.
type blockSumSinkF64[E any] struct {
	x, y *BlockVector[float64]
}

func (s *blockSumSinkF64[E]) fold(ir []uint32, _ []E, cols []colRef) int {
	x, y := s.x, s.y
	ysw, ycols := y.summary.Words(), y.cols
	edges := 0
	for _, c := range cols {
		cm, xrow := x.cols[c.j], x.Row(c.j)
		irc := ir[c.lo:c.hi]
		edges += len(irc) * bits.OnesCount64(cm)
		for _, dst := range irc {
			ym := touchRow(ysw, ycols, dst)
			kernels.BlockAddF64(y.Row(dst), xrow, cm, ym)
			ycols[dst] = ym | cm
		}
	}
	return edges
}
