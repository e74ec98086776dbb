package core

import (
	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the scalar engine's fold half of the kernel layer: the sinks
// the walks of kernel.go feed when the output is one reduction vector, and
// the seam to the arch-dispatched fold primitives in internal/kernels.
// scalarSink resolves a program to its sink once per run: the fused float64
// sum fold or a fused float32 path-semiring fold when the program declares
// one and the element types really match, the generic callback loop
// otherwise — with the row walk's gather beside it when the program declares
// FirstMessageFinal.

// SumFoldF64 is an optional marker for programs whose fold is the
// (+, passthrough) monoid over float64: ProcessMessage returns the message
// unchanged — bit-for-bit, for every edge value and destination — and Reduce
// is float64 addition. PageRank, PPR and HITS are this shape: the per-edge
// work is pure gather-and-accumulate.
//
// Declaring it lets the sinks replace the per-edge callback loop with the
// kernels backend's fused primitives — ScatterAddF64 for the scalar column
// fold, BlockAddF64 for the block fold's k-wide masked lane add — which is
// where the AVX2/NEON backends earn their keep on the dense-frontier
// algorithms. The declaration is a promise, like DstIndependent: the fused
// fold must be indistinguishable from the generic loop. The differential
// suites enforce it (fused vs generic, and every SIMD backend vs the scalar
// oracle, all bit-identical).
//
// One boundary inherited from the branchless SIMD variants: messages must
// never be signaling NaNs. Engine messages are arithmetic results, which are
// never signaling, so this excludes nothing in practice.
type SumFoldF64 interface {
	ReducesBySumF64()
}

// scalarSink resolves program p's column fold from message vector x into
// reduction vector y. The result only reads p and views of the vectors'
// backing arrays (stable across Reset), so one sink serves every task of
// every superstep of a run.
func scalarSink[V, E, M, R any, P Program[V, E, M, R]](p P, x *sparse.Vector[M], props []V, y *sparse.Vector[R]) colSink[E] {
	yw := y.Mask().Words()
	if _, ok := any(p).(SumFoldF64); ok {
		xv, okX := any(x.Values()).([]float64)
		yv, okY := any(y.Values()).([]float64)
		if okX && okY {
			return &sumSinkF64[E]{yw: yw, x: xv, y: yv}
		}
	}
	if kind := f32FoldKindOf(p); kind != f32FoldNone {
		xv, okX := any(x.Values()).([]float32)
		yv, okY := any(y.Values()).([]float32)
		// The weight operand must be float32 too: the sink is a colSink[E]
		// only when E is.
		if s, okE := any(&pathSinkF32{kind: kind, yw: yw, x: xv, y: yv}).(colSink[E]); okX && okY && okE {
			return s
		}
	}
	_, dstFree := any(p).(DstIndependent)
	fold := foldSink[V, E, M, R, P]{p: p, dstFree: dstFree, x: x.Values(), props: props, yw: yw, y: y.Values()}
	if settling, ok := any(p).(FirstMessageFinal[V]); ok {
		return &gatherSink[V, E, M, R, P]{foldSink: fold, settling: settling}
	}
	return &fold
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

func (s *sumSinkF64[E]) foldFlat(ir []uint32, _ []E, src []uint32) {
	kernels.FlatAddF64(s.yw, s.y, ir, src, s.x)
}

// foldSink is the generic fold: ProcessMessage on every edge, Reduce on
// collisions, first writes stored raw under a mask bit. The type is
// instantiated per program, so the compiler specializes the loop — the
// reproduction's analogue of compiling the C++ with -ipo (§4.5 item 2).
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

func (s *foldSink[V, E, M, R, P]) foldFlat(ir []uint32, val []E, src []uint32) {
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

// gatherSink is the generic fold of a FirstMessageFinal program: the column
// folds of foldSink, plus the row walk's gather. The two produce different y
// vectors — the gather leaves settled rows and all but the first message of
// an unsettled row unfolded — that Apply, by the program's promise, turns
// into the same vertex state.
type gatherSink[V, E, M, R any, P Program[V, E, M, R]] struct {
	foldSink[V, E, M, R, P]
	settling FirstMessageFinal[V]
}

func (s *gatherSink[V, E, M, R, P]) foldRows(rows *sparse.RowIndex[E], xw []uint64, rlo, rhi uint32) int {
	p, x, props, yw, y := s.p, s.x, s.props, s.yw, s.y
	ptr := rows.Ptr[rlo-rows.RowLo : rhi-rows.RowLo+1]
	examined := 0
	for i, prop := range props[rlo:rhi] {
		if !s.settling.Unsettled(prop) {
			continue
		}
		in := rows.Entries[ptr[i]:ptr[i+1]]
		k := 0
		for k < len(in) && xw[in[k].Src>>6]&(1<<(in[k].Src&63)) == 0 {
			k++
		}
		examined += k
		if k == len(in) {
			continue // no in-neighbour on the frontier
		}
		examined++
		dst := rlo + uint32(i)
		y[dst] = p.ProcessMessage(x[in[k].Src], in[k].Val, prop)
		yw[dst>>6] |= 1 << (dst & 63)
	}
	return examined
}
