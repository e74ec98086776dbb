package core

import (
	"math/bits"

	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
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

// blockSink resolves block program p's column fold from message block x
// into reduction block y, once per run — the block analogue of scalarSink,
// with the same fused float64-sum and float32 path-semiring fast paths, and
// the row walk's k-wide gather beside the generic fold when the program
// declares FirstMessageFinal (props is the run's n×k property block, which
// only the gather reads). The sinks read per-vertex column masks, so they
// serve blocks of two or more columns only; runBlock gives a one-column
// block to scalarSink.
func blockSink[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](p P, x *BlockVector[M], props []V, y *BlockVector[R]) colSink[E] {
	if _, ok := any(p).(SumFoldF64); ok {
		xf, okX := any(x).(*BlockVector[float64])
		yf, okY := any(y).(*BlockVector[float64])
		if okX && okY {
			return &blockSumSinkF64[E]{x: xf, y: yf}
		}
	}
	if kind := f32FoldKindOf(p); kind != f32FoldNone {
		xf, okX := any(x).(*BlockVector[float32])
		yf, okY := any(y).(*BlockVector[float32])
		if s, okE := any(&blockPathSinkF32{kind: kind, x: xf, y: yf}).(colSink[E]); okX && okY && okE {
			return s
		}
	}
	fold := blockFoldSink[V, E, M, R, P]{p: p, x: x, y: y}
	if settling, ok := any(p).(FirstMessageFinal[V]); ok {
		return &blockGatherSink[V, E, M, R, P]{blockFoldSink: fold, props: props, settling: settling}
	}
	return &fold
}

// touchRow returns vertex v's column mask in a block vector's two-level
// occupancy (summary words, per-vertex masks), zeroing it on the first
// touch of v after a Reset. Single-writer per 64-aligned vertex range, like
// all engine vector writes.
func touchRow(summary, cols []uint64, v uint32) uint64 {
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

// blockGatherSink is the generic block fold of a FirstMessageFinal program:
// the column folds of blockFoldSink, plus the row walk's gather over all k
// columns at once. Per column the gather is gatherSink's — skip a settled
// (vertex, column), take the first frontier in-neighbour in ascending source
// id — so each column's y, and what Apply makes of it, is its solo run's;
// what the width shares is the scan of the row.
type blockGatherSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	blockFoldSink[V, E, M, R, P]
	props    []V // n×k, row-major like the blocks
	settling FirstMessageFinal[V]
}

// waitingCols returns the mask of the columns of one vertex's property row
// that are still unsettled.
func waitingCols[V any](settling FirstMessageFinal[V], prow []V) (waiting uint64) {
	for c, prop := range prow {
		if settling.Unsettled(prop) {
			waiting |= 1 << uint(c)
		}
	}
	return waiting
}

// foldRows scans each row of [rlo, rhi) for the columns in which its vertex
// is still unsettled: a frontier source retires the columns it carries a
// message in, and the scan leaves the row when none is left. It returns the
// edge slots it examined, each counted once however many columns waited at
// it.
func (s *blockGatherSink[V, E, M, R, P]) foldRows(rows *sparse.RowIndex[E], xw []uint64, rlo, rhi uint32) int {
	p, x, y, k := s.p, s.x, s.y, s.x.k
	xcols, ysw, ycols := x.cols, y.summary.Words(), y.cols
	var zeroV V
	ptr := rows.Ptr[rlo-rows.RowLo : rhi-rows.RowLo+1]
	examined := 0
	for i := range ptr[1:] {
		dst := rlo + uint32(i)
		waiting := waitingCols(s.settling, s.props[int(dst)*k:int(dst)*k+k])
		if waiting == 0 {
			continue
		}
		var got uint64
		yrow := y.Row(dst)
		in := rows.Entries[ptr[i]:ptr[i+1]]
		j := 0
		for ; j < len(in) && waiting != 0; j++ {
			src := in[j].Src
			if xw[src>>6]&(1<<(src&63)) == 0 {
				continue
			}
			hit := xcols[src] & waiting
			xrow := x.Row(src)
			for m := hit; m != 0; m &= m - 1 {
				col := bits.TrailingZeros64(m)
				yrow[col] = p.ProcessMessage(xrow[col], in[j].Val, zeroV)
			}
			got |= hit
			waiting &^= hit
		}
		examined += j
		if got != 0 {
			// The row is this task's alone and a gathering layer writes it
			// nowhere else, so its mask is stored, not merged.
			ysw[dst>>6] |= 1 << (dst & 63)
			ycols[dst] = got
		}
	}
	return examined
}

// blockSumSinkF64 is the (+, passthrough) float64 block fold: per edge, one
// masked k-lane add through the kernels backend. Lanes are independent and
// first writes store the raw message, exactly like the generic loop.
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
