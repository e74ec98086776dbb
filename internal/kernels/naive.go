package kernels

// This file is the scalar reference backend: the always-on, pure-Go
// implementation of every primitive, byte-for-byte the behavior the SIMD
// backends are audited against. Keep these loops boring — they are the
// oracle, and they are also the fallback on CPUs without SIMD support, so
// they must stay correct and readable before fast.

func scalarPopcountSum(w []uint64) int {
	c := 0
	for _, x := range w {
		c += onesCount64(x)
	}
	return c
}

func scalarFirstNonzero(w []uint64) int {
	for i, x := range w {
		if x != 0 {
			return i
		}
	}
	return -1
}

func scalarSpanLess(a []uint32, v uint32) int {
	for i, x := range a {
		if x >= v {
			return i
		}
	}
	return len(a)
}

func scalarBlockAddF64(yrow, xrow []float64, cm, ym uint64) {
	for s := range yrow {
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

func scalarScatterAddF64(yw []uint64, yvals []float64, idx []uint32, m float64) {
	for _, dst := range idx {
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			yvals[dst] += m
		} else {
			yvals[dst] = m
			*w |= bit
		}
	}
}

func scalarFlatAddF64(yw []uint64, yvals []float64, idx, src []uint32, x []float64) {
	src = src[:len(idx)]
	for k, dst := range idx {
		m := x[src[k]]
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			yvals[dst] += m
		} else {
			yvals[dst] = m
			*w |= bit
		}
	}
}

func scalarScatterMinPlusF32(yw []uint64, yvals []float32, idx []uint32, wv []float32, m float32) {
	for k, dst := range idx {
		r := m + wv[k]
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			yvals[dst] = min(yvals[dst], r)
		} else {
			yvals[dst] = r
			*w |= bit
		}
	}
}

func scalarScatterMaxMinF32(yw []uint64, yvals []float32, idx []uint32, wv []float32, m float32) {
	for k, dst := range idx {
		r := min(m, wv[k])
		w := &yw[dst>>6]
		bit := uint64(1) << (dst & 63)
		if *w&bit != 0 {
			yvals[dst] = max(yvals[dst], r)
		} else {
			yvals[dst] = r
			*w |= bit
		}
	}
}

func scalarBlockMinPlusF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	for s := range yrow {
		bit := uint64(1) << uint(s)
		if cm&bit == 0 {
			continue
		}
		r := xrow[s] + w
		if ym&bit != 0 {
			yrow[s] = min(yrow[s], r)
		} else {
			yrow[s] = r
		}
	}
}

func scalarBlockMaxMinF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	for s := range yrow {
		bit := uint64(1) << uint(s)
		if cm&bit == 0 {
			continue
		}
		r := min(xrow[s], w)
		if ym&bit != 0 {
			yrow[s] = max(yrow[s], r)
		} else {
			yrow[s] = r
		}
	}
}
