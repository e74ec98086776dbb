package core

import (
	"math/bits"

	"graphmat/internal/kernels"
)

// This file extends the fused folds beyond the (+, passthrough) float64
// monoid to the two float32 path semirings the traversal algorithms run on:
// (min, +) — SSSP's Bellman-Ford step, SemiringMinPlusF32 — and (max, min) —
// widest (bottleneck) paths, SemiringMaxMinF32 — as one scalar and one block
// sink, each told the semiring by its kind. Unlike the sum fold, these
// candidates depend on the edge value (message ⊗ weight), so the sinks are
// colSink[float32] and serve only float32-weighted graphs.

// pathSinkF32 is the scalar fused fold: one arch-dispatched scatter per
// column.
type pathSinkF32 struct {
	kind Semiring // SemiringMinPlusF32 or SemiringMaxMinF32
	yw   []uint64
	x, y []float32
}

func (s *pathSinkF32) fold(ir []uint32, val []float32, cols []colRef) int {
	edges := 0
	for _, c := range cols {
		irc, wc := ir[c.lo:c.hi], val[c.lo:c.hi]
		edges += len(irc)
		if s.kind == SemiringMinPlusF32 {
			kernels.ScatterMinPlusF32(s.yw, s.y, irc, wc, s.x[c.j])
		} else {
			kernels.ScatterMaxMinF32(s.yw, s.y, irc, wc, s.x[c.j])
		}
	}
	return edges
}

// foldFlat is the same fold over a fully-live run of columns: the candidate
// and the builtin min/max argument order are the scatter primitives', with
// the message read per edge. A whole partition folds masked too, its rows
// unused: Go's builtin min and max do not promise which NaN's payload they
// return, so no seed value is an identity bit for bit, and grid SSSP, the
// run this sink is for, never folds a whole partition flat.
func (s *pathSinkF32) foldFlat(ir []uint32, val []float32, src []uint32, _ rowMask) {
	x, yw, y := s.x, s.yw, s.y
	val, src = val[:len(ir)], src[:len(ir)]
	if s.kind == SemiringMinPlusF32 {
		for k, dst := range ir {
			r := x[src[k]] + val[k]
			w := &yw[dst>>6]
			bit := uint64(1) << (dst & 63)
			if *w&bit != 0 {
				y[dst] = min(y[dst], r)
			} else {
				y[dst] = r
				*w |= bit
			}
		}
		return
	}
	for k, dst := range ir {
		r := min(x[src[k]], val[k])
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			y[dst] = max(y[dst], r)
		} else {
			y[dst] = r
			*w |= bit
		}
	}
}

// blockPathSinkF32 is the block fused fold: per edge, one masked k-lane
// fold through the kernels backend instead of a per-source callback loop.
// Identical fold semantics — lanes are independent and first writes store
// the raw candidate, exactly like the generic loop. It stays masked for
// blockSumSinkF64's reason and pathSinkF32's.
type blockPathSinkF32 struct {
	kind Semiring // as pathSinkF32's
	x, y *BlockVector[float32]
}

func (s *blockPathSinkF32) fold(ir []uint32, val []float32, cols []colRef) int {
	x, y := s.x, s.y
	ysw, ycols := y.summary.Words(), y.cols
	edges := 0
	for _, c := range cols {
		cm, xrow := x.cols[c.j], x.Row(c.j)
		irc, wc := ir[c.lo:c.hi], val[c.lo:c.hi]
		edges += len(irc) * bits.OnesCount64(cm)
		for kk, dst := range irc {
			ym := touchRow(ysw, ycols, dst)
			yrow := y.Row(dst)
			if s.kind == SemiringMinPlusF32 {
				kernels.BlockMinPlusF32(yrow, xrow, wc[kk], cm, ym)
			} else {
				kernels.BlockMaxMinF32(yrow, xrow, wc[kk], cm, ym)
			}
			ycols[dst] = ym | cm
		}
	}
	return edges
}
