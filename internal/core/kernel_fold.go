package core

import (
	"math"
	"math/bits"

	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the scalar engine's fold half of the kernel layer: the sinks
// the walks of kernel.go feed when the output is one reduction vector, and
// the seam to the arch-dispatched fold primitives in internal/kernels.
// scalarSink resolves a program to its sink once per run: the fused float64
// sum fold, a fused float32 path-semiring fold or the fused uint32 min fold
// when the program declares one (SemiringFold) and the element types really
// match, the generic callback loop otherwise. None of them gathers by rows:
// a run of the one kind of program that row-walks — boolean,
// FirstMessageFinal and DstIndependent — never gets here, as blockSink gives
// it maskSink, the one-column mask fold; SpMV, which walks columns only,
// gives it the generic fold.
//
// Every flat fold tests an occupancy bit per edge to tell a first write from
// a reduction, except one: a whole fully-live partition handed to the sum or
// the min sink with its row mask (walkPull). The rows that partition writes
// are known from its structure, so the sink seeds each one not yet written
// with its reduction's exact identity — −0 for float64 +, MaxUint32 for
// uint32 min — marks them all at once (seedRows), and folds every edge with
// no mask load and no branch. Column batches, partitions without a row mask
// and the other sinks keep the masked fold; results and tallies are the
// same either way.
//
// A helper on a per-partition, per-row or per-word fold path is generic, so
// that it inlines where the engine is instantiated (package algorithms,
// which sees internal/core only through the facade); a non-generic one
// stays a call there. seedRows, rangeWord, chunkWords, nextRow, putRow and
// touchRow follow the rule; internal/lint's inlinedHelpers lists them, the
// helpers the build must inline.

// scalarSink resolves program p's column fold from message vector x into
// reduction vector y. The result only reads p and views of the vectors'
// backing arrays (stable across Reset), so one sink serves every task of
// every superstep of a run.
func scalarSink[V, E, M, R any, P Program[V, E, M, R]](p P, x *sparse.Vector[M], props []V, y *sparse.Vector[R]) colSink[E] {
	yw := y.Mask().Words()
	switch sr := semiringOf(p); sr {
	case SemiringSumF64:
		xv, okX := any(x.Values()).([]float64)
		yv, okY := any(y.Values()).([]float64)
		if okX && okY {
			return &sumSinkF64[E]{yw: yw, x: xv, y: yv}
		}
	case SemiringMinPlusF32, SemiringMaxMinF32:
		xv, okX := any(x.Values()).([]float32)
		yv, okY := any(y.Values()).([]float32)
		// The weight operand must be float32 too: the sink is a colSink[E]
		// only when E is.
		if s, okE := any(&pathSinkF32{kind: sr, yw: yw, x: xv, y: yv}).(colSink[E]); okX && okY && okE {
			return s
		}
	case SemiringMinU32:
		xv, okX := any(x.Values()).([]uint32)
		yv, okY := any(y.Values()).([]uint32)
		if okX && okY {
			return &minSinkU32[E]{yw: yw, x: xv, y: yv}
		}
	}
	_, dstFree := any(p).(DstIndependent)
	return &foldSink[V, E, M, R, P]{p: p, dstFree: dstFree, x: x.Values(), props: props, yw: yw, y: y.Values()}
}

// sumSinkF64 is the (+, passthrough) float64 fold: the whole per-edge loop
// is one arch-dispatched scatter-add per column; edge values are never read.
type sumSinkF64[E any] struct {
	yw   []uint64
	x, y []float64
}

func (s *sumSinkF64[E]) fold(ir []uint32, _ []E, cols []colRef) int {
	edges := 0
	for _, c := range cols {
		irc := ir[c.lo:c.hi]
		edges += len(irc)
		kernels.ScatterAddF64(s.yw, s.y, irc, s.x[c.j])
	}
	return edges
}

// foldFlat folds a whole partition mask-free when walkPull hands one with
// its rows (seedRows): −0 is the exact identity of float64 +, as −0 + m has
// m's bits for every m the engine folds — ±0, subnormals, ±Inf, quiet NaNs
// with their payloads — so y[dst] += x[src[k]] from the seed stores what the
// masked fold's first write stores, and every later add is the same add. A
// batch folds masked, through FlatAddF64.
func (s *sumSinkF64[E]) foldFlat(ir []uint32, _ []E, src []uint32, rows rowMask) {
	if rows.words == nil {
		kernels.FlatAddF64(s.yw, s.y, ir, src, s.x)
		return
	}
	x, y := s.x, s.y
	seedRows(s.yw, y, rows, math.Copysign(0, -1))
	src = src[:len(ir)]
	for k, dst := range ir {
		y[dst] += x[src[k]]
	}
}

// minSinkU32 is the (min, passthrough) uint32 fold: the builtin min or a
// first write per edge, in the generic fold's argument order, and no call.
// It stays scalar on every backend for FlatAddF64's reason: the loop is a
// dependent gather feeding a scatter.
type minSinkU32[E any] struct {
	yw   []uint64
	x, y []uint32
}

func (s *minSinkU32[E]) fold(ir []uint32, _ []E, cols []colRef) int {
	yw, y := s.yw, s.y
	edges := 0
	for _, c := range cols {
		m := s.x[c.j]
		irc := ir[c.lo:c.hi]
		edges += len(irc)
		for _, dst := range irc {
			w := &yw[dst>>6]
			bit := uint64(1) << (dst & 63)
			if *w&bit != 0 {
				y[dst] = min(y[dst], m)
			} else {
				y[dst] = m
				*w |= bit
			}
		}
	}
	return edges
}

// foldFlat folds a whole partition mask-free, as sumSinkF64's does, from
// the identity of uint32 min, MaxUint32: min(MaxUint32, m) is m.
func (s *minSinkU32[E]) foldFlat(ir []uint32, _ []E, src []uint32, rows rowMask) {
	x, yw, y := s.x, s.yw, s.y
	src = src[:len(ir)]
	if rows.words != nil {
		seedRows(yw, y, rows, math.MaxUint32)
		for k, dst := range ir {
			y[dst] = min(y[dst], x[src[k]])
		}
		return
	}
	for k, dst := range ir {
		m := x[src[k]]
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			y[dst] = min(y[dst], m)
		} else {
			y[dst] = m
			*w |= bit
		}
	}
}

// foldSink is the generic fold: ProcessMessage on every edge, Reduce on
// collisions, first writes stored raw under a mask bit. Messages and results
// stay unboxed, but the two callbacks are real calls: Go instantiates the
// loop per GC shape, not per program, and calls P's methods through the
// instantiation's dictionary, so a profile shows e.g. tcPhase2.Reduce as
// its own frame. The fused sinks (sumSinkF64, pathSinkF32, minSinkU32) are
// where this engine gets what compiling the C++ with -ipo (§4.5 item 2)
// gets: a per-edge loop with no call in it.
type foldSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	p P
	// dstFree: the program declared ProcessMessage ignores the destination
	// property, so the per-edge random load of props[dst] is skipped.
	dstFree bool
	x       []M
	props   []V
	yw      []uint64
	y       []R
}

func (s *foldSink[V, E, M, R, P]) fold(ir []uint32, val []E, cols []colRef) int {
	p, props, yw, y := s.p, s.props, s.yw, s.y
	var zeroV V
	edges := 0
	for _, c := range cols {
		m := s.x[c.j]
		// Subslice the column so the inner loop is bounds-check free.
		irc, vc := ir[c.lo:c.hi], val[c.lo:c.hi:c.hi]
		edges += len(irc)
		if s.dstFree {
			for k, dst := range irc {
				r := p.ProcessMessage(m, vc[k], zeroV)
				w := &yw[dst>>6]
				bit := uint64(1) << (dst & 63)
				if *w&bit != 0 {
					y[dst] = p.Reduce(y[dst], r)
				} else {
					y[dst] = r
					*w |= bit
				}
			}
			continue
		}
		for k, dst := range irc {
			r := p.ProcessMessage(m, vc[k], props[dst])
			w := &yw[dst>>6]
			bit := uint64(1) << (dst & 63)
			if *w&bit != 0 {
				y[dst] = p.Reduce(y[dst], r)
			} else {
				y[dst] = r
				*w |= bit
			}
		}
	}
	return edges
}

func (s *foldSink[V, E, M, R, P]) foldFlat(ir []uint32, val []E, src []uint32, _ rowMask) {
	p, x, props, yw, y := s.p, s.x, s.props, s.yw, s.y
	var zeroV V
	// Reslice to ir's length so the loops are bounds-check free.
	val, src = val[:len(ir)], src[:len(ir)]
	if s.dstFree {
		for k, dst := range ir {
			r := p.ProcessMessage(x[src[k]], val[k], zeroV)
			w := &yw[dst>>6]
			bit := uint64(1) << (dst & 63)
			if *w&bit != 0 {
				y[dst] = p.Reduce(y[dst], r)
			} else {
				y[dst] = r
				*w |= bit
			}
		}
		return
	}
	for k, dst := range ir {
		r := p.ProcessMessage(x[src[k]], val[k], props[dst])
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			y[dst] = p.Reduce(y[dst], r)
		} else {
			y[dst] = r
			*w |= bit
		}
	}
}

// maskSink is blockMaskSink at one column, for a program that also declares
// DstIndependent: y is its mask only, and apply hands every received vertex
// still unsettled the superstep's one value, which prepare computes. No fold
// calls the program or reads a message or an edge value. The settled set is
// a bitmap, one bit per vertex — a row of nextRow's k = 1 convention, so
// runPhases seeds it and apply keeps it as it does a block's settled mask.
type maskSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	p       P
	x       *sparse.Vector[M]
	yw      []uint64
	settled []uint64
	// live is whether x holds a message, and vals the value it processes
	// to, set by prepare: 64 copies, as apply reads a row's column s from
	// vals[s] and a one-column row is a mask word of 64 vertices.
	live bool
	vals [64]R
}

// prepare processes the superstep's first message over the zero edge
// value: by the boolean promise, every message processes to the same.
func (s *maskSink[V, E, M, R, P]) prepare() {
	xw := s.x.Mask().Words()
	wi := kernels.FirstNonzero(xw)
	if s.live = wi >= 0; s.live {
		var zeroE E
		var zeroV V
		val := s.p.ProcessMessage(s.x.Values()[wi<<6|bits.TrailingZeros64(xw[wi])], zeroE, zeroV)
		for c := range s.vals {
			s.vals[c] = val
		}
	}
}

func (s *maskSink[V, E, M, R, P]) fold(ir []uint32, _ []E, cols []colRef) int {
	edges := 0
	for _, c := range cols {
		edges += int(c.hi - c.lo)
		s.foldFlat(ir[c.lo:c.hi], nil, nil, rowMask{})
	}
	return edges
}

func (s *maskSink[V, E, M, R, P]) foldFlat(ir []uint32, _ []E, _ []uint32, _ rowMask) {
	yw := s.yw
	for _, dst := range ir {
		yw[dst>>6] |= 1 << (dst & 63)
	}
}

// foldRows walks the complement of the settled bitmap over rows' range a
// word at a time: each unsettled row's first frontier source sets its y
// bit, and the slots examined on the way to it are tallied. With no message
// (live false) no row can be reached, and none is scanned.
//
// It is written out apart from blockMaskSink's gather because a shared form
// measured slower on the k = 1 bfs batch (BenchmarkBFSBatch, 2-vCPU shared
// VM, alternating rounds, µs/source medians): the block gather's row loop
// at k = 1 went 2 821 → 3 032, slower in 6 of 8 rounds.
func (s *maskSink[V, E, M, R, P]) foldRows(rows liveRows, xw []uint64) int {
	ptr, rlo := rows.base.Ptr, rows.base.RowLo
	rhi := rlo + uint32(len(ptr)-1)
	examined := 0
	for wi := int(rlo >> 6); s.live && wi<<6 < int(rhi); wi++ {
		for w := ^s.settled[wi] & rangeWord(wi, rlo, rhi); w != 0; w &= w - 1 {
			i := (uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))) - rlo
			ok := false
			if rows.delta == nil {
				in := rows.base.Src[ptr[i]:ptr[i+1]]
				k := 0
				for k < len(in) && xw[in[k]>>6]&(1<<(in[k]&63)) == 0 {
					k++
				}
				if ok = k < len(in); ok {
					k++
				}
				examined += k
			} else {
				r := rows.row(int(i))
				_, ok = r.next(xw)
				examined += r.seen
			}
			if ok {
				s.yw[wi] |= w & -w
			}
		}
	}
	return examined
}

// seedRows readies y for a whole partition's mask-free fold: every row of
// rows that yw does not mark yet takes id, the reduction's identity, and yw
// then marks all of rows — the marks the masked fold's first writes would
// leave. A row already marked keeps its value: a two-direction run's second
// layer set folds into rows its first one wrote.
func seedRows[T any](yw []uint64, y []T, rows rowMask, id T) {
	yw = yw[rows.w0 : rows.w0+len(rows.words)]
	for i, pm := range rows.words {
		for m := pm &^ yw[i]; m != 0; m &= m - 1 {
			y[(rows.w0+i)<<6|bits.TrailingZeros64(m)] = id
		}
		yw[i] |= pm
	}
}

// rangeWord returns the bits of mask word wi that fall in vertex range
// [lo, hi). A partition's range is 64-aligned but for its end, the vertex
// count, where an empty trailing partition also starts. It is generic only
// so that it inlines where the engine is instantiated; T is always uint32.
func rangeWord[T ~uint32](wi int, lo, hi T) uint64 {
	base, m := T(wi)<<6, ^uint64(0)
	if lo > base {
		m <<= lo - base
	}
	if hi-base < 64 {
		m &= 1<<(hi-base) - 1
	}
	return m
}
