//go:build amd64

package kernels

import "math/bits"

// AVX2 backend wrappers: each routes the vectorizable body of a primitive to
// the assembly in kern_amd64.s (whole 256-bit blocks) and finishes the tail
// with the scalar reference loop. The split keeps the assembly small and the
// boundary conditions in Go, where they are testable and readable.

// Assembly bodies (kern_amd64.s). n counts are in elements and are always
// multiples of the body's block size; pointers are to the first element.
//
//go:noescape
func popcountBodyAVX2(w *uint64, n int) int

//go:noescape
func firstNonzeroBodyAVX2(w *uint64, n int) int

//go:noescape
func spanLessBodyAVX2(a *uint32, n int, v uint32) int

//go:noescape
func blockAddF64BodyAVX2(yrow, xrow *float64, n int, cm, ym uint64)

//go:noescape
func scatterAddF64BodyAVX2(yw *uint64, yvals *float64, idx *uint32, n int, m float64)

// The f32 path-fold bodies return the 8-lane groups they left to the scalar
// loop (bit g = lanes 8g..8g+7): the ones holding a NaN.
//
//go:noescape
func blockMinPlusF32BodyAVX2(yrow, xrow *float32, n int, w float32, cm, ym uint64) (nan uint64)

//go:noescape
func blockMaxMinF32BodyAVX2(yrow, xrow *float32, n int, w float32, cm, ym uint64) (nan uint64)

func avx2PopcountSum(w []uint64) int {
	n := len(w) &^ 3
	c := 0
	if n > 0 {
		c = popcountBodyAVX2(&w[0], n)
	}
	for _, x := range w[n:] {
		c += bits.OnesCount64(x)
	}
	return c
}

func avx2FirstNonzero(w []uint64) int {
	n := len(w) &^ 3
	if n > 0 {
		if blk := firstNonzeroBodyAVX2(&w[0], n); blk >= 0 {
			for i := blk; ; i++ {
				if w[i] != 0 {
					return i
				}
			}
		}
	}
	for i := n; i < len(w); i++ {
		if w[i] != 0 {
			return i
		}
	}
	return -1
}

func avx2SpanLess(a []uint32, v uint32) int {
	n := len(a) &^ 7
	c := 0
	if n > 0 {
		c = spanLessBodyAVX2(&a[0], n, v)
		if c < n {
			return c
		}
	}
	for _, x := range a[c:] {
		if x >= v {
			return c
		}
		c++
	}
	return c
}

func avx2BlockAddF64(yrow, xrow []float64, cm, ym uint64) {
	if cm == 0 {
		return
	}
	k := len(yrow)
	n := k &^ 3
	if n > 0 {
		blockAddF64BodyAVX2(&yrow[0], &xrow[0], n, cm, ym)
	}
	for s := n; s < k; s++ {
		bit := uint64(1) << uint(s)
		if cm&bit == 0 {
			continue
		}
		if ym&bit != 0 {
			yrow[s] += xrow[s]
		} else {
			yrow[s] = xrow[s]
		}
	}
}

func avx2ScatterAddF64(yw []uint64, yvals []float64, idx []uint32, m float64) {
	n := len(idx) &^ 3
	if n > 0 {
		scatterAddF64BodyAVX2(&yw[0], &yvals[0], &idx[0], n, m)
	}
	scalarScatterAddF64(yw, yvals, idx[n:], m)
}

func avx2BlockMinPlusF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	n := len(yrow) &^ 7
	var redo uint64
	if n > 0 {
		redo = blockMinPlusF32BodyAVX2(&yrow[0], &xrow[0], n, w, cm, ym)
	}
	if n < len(yrow) {
		redo |= 1 << (n >> 3) // the tail group
	}
	for ; redo != 0; redo &= redo - 1 {
		lo := bits.TrailingZeros64(redo) << 3
		scalarBlockMinPlusF32(yrow[lo:min(lo+8, len(yrow))], xrow[lo:], w, cm>>lo, ym>>lo)
	}
}

func avx2BlockMaxMinF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	n := len(yrow) &^ 7
	var redo uint64
	if n > 0 {
		redo = blockMaxMinF32BodyAVX2(&yrow[0], &xrow[0], n, w, cm, ym)
	}
	if n < len(yrow) {
		redo |= 1 << (n >> 3) // the tail group
	}
	for ; redo != 0; redo &= redo - 1 {
		lo := bits.TrailingZeros64(redo) << 3
		scalarBlockMaxMinF32(yrow[lo:min(lo+8, len(yrow))], xrow[lo:], w, cm>>lo, ym>>lo)
	}
}
