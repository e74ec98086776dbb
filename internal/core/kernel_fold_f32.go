package core

import (
	"math/bits"

	"graphmat/internal/kernels"
)

// This file extends the fused folds beyond the (+, passthrough) float64
// monoid to the two float32 path semirings the traversal algorithms run on:
// (min, +) — SSSP's Bellman-Ford step — and (max, min) — widest
// (bottleneck) paths — as one scalar and one block sink. Unlike the sum
// fold, these candidates depend on the edge value (message ⊗ weight), so
// the sinks are colSink[float32] and serve only float32-weighted graphs.

// MinPlusFoldF32 is an optional marker for programs whose fold is the
// float32 tropical semiring: ProcessMessage is message + edge weight —
// bit-for-bit, ignoring the destination property — and Reduce is the builtin
// min. SSSP is this shape.
//
// Like SumFoldF64, the declaration is a promise the differential suites
// enforce: the fused fold must be indistinguishable from the generic
// callback loop, on every input, including NaN and ±0 edge cases (the
// fused reduction applies the builtin min/max in the same argument order
// the engine's generic fold does).
type MinPlusFoldF32 interface {
	ReducesByMinPlusF32()
}

// MaxMinFoldF32 is the (max, min) analogue: ProcessMessage is the builtin
// min of message and edge weight, Reduce the builtin max. Widest paths are
// this shape.
type MaxMinFoldF32 interface {
	ReducesByMaxMinF32()
}

// f32FoldKind discriminates the float32 path semiring a program declares.
type f32FoldKind uint8

const (
	f32FoldNone f32FoldKind = iota
	f32FoldMinPlus
	f32FoldMaxMin
)

func f32FoldKindOf(p any) f32FoldKind {
	if _, ok := p.(MinPlusFoldF32); ok {
		return f32FoldMinPlus
	}
	if _, ok := p.(MaxMinFoldF32); ok {
		return f32FoldMaxMin
	}
	return f32FoldNone
}

// pathSinkF32 is the scalar fused fold: one arch-dispatched scatter per
// column.
type pathSinkF32 struct {
	kind f32FoldKind
	yw   []uint64
	x, y []float32
}

func (s *pathSinkF32) fold(ir []uint32, val []float32, cols []colRef) int {
	edges := 0
	for _, c := range cols {
		irc, wc := ir[c.lo:c.hi], val[c.lo:c.hi]
		edges += len(irc)
		if s.kind == f32FoldMinPlus {
			kernels.ScatterMinPlusF32(s.yw, s.y, irc, wc, s.x[c.j])
		} else {
			kernels.ScatterMaxMinF32(s.yw, s.y, irc, wc, s.x[c.j])
		}
	}
	return edges
}

// foldFlat is the same fold over a fully-live run of columns: the candidate
// and the builtin min/max argument order are the scatter primitives', with
// the message read per edge.
func (s *pathSinkF32) foldFlat(ir []uint32, val []float32, src []uint32) {
	x, yw, y := s.x, s.yw, s.y
	val, src = val[:len(ir)], src[:len(ir)]
	if s.kind == f32FoldMinPlus {
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
// the raw candidate, exactly like the generic loop.
type blockPathSinkF32 struct {
	kind f32FoldKind
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
			if s.kind == f32FoldMinPlus {
				kernels.BlockMinPlusF32(yrow, xrow, wc[kk], cm, ym)
			} else {
				kernels.BlockMaxMinF32(yrow, xrow, wc[kk], cm, ym)
			}
			ycols[dst] = ym | cm
		}
	}
	return edges
}
