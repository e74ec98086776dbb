package kernels

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// The fuzz differentials: every SIMD backend must match the scalar oracle
// bit for bit on arbitrary inputs, not just the structured cases the parity
// tests enumerate. FuzzBitvecWords covers the integer word primitives,
// FuzzDenseFold the float64 and float32 folds. Both run as regular seed-corpus tests
// under `go test` (the CI fuzz-smoke additionally runs them with -fuzz for a
// bounded wall-clock slice).

// fuzzWords reinterprets the fuzz byte string as little-endian words.
func fuzzWords(data []byte) []uint64 {
	w := make([]uint64, len(data)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return w
}

// quietNaN forces the quiet bit on NaN payloads: ScatterAddF64's contract
// excludes signaling NaN messages (the engine only folds arithmetic results),
// so the fuzzer must not feed one. Payload bits below the quiet bit survive,
// keeping the input diversity.
func quietNaN(x float64) float64 {
	if x != x {
		return math.Float64frombits(math.Float64bits(x) | 1<<51)
	}
	return x
}

// FuzzBitvecWords drives the integer primitives — popcount sum, next-set-word
// scan, and the SpanLess run scan — through every supported SIMD backend
// against the scalar reference.
func FuzzBitvecWords(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0}, uint32(1))
	long := make([]byte, 8*37+5) // odd tail exercises the remainder paths
	for i := range long {
		long[i] = byte(i * 131)
	}
	f.Add(long, uint32(0x80000000))
	f.Fuzz(func(t *testing.T, data []byte, v uint32) {
		a := fuzzWords(data)
		u32 := make([]uint32, len(data)/4)
		for i := range u32 {
			u32[i] = binary.LittleEndian.Uint32(data[i*4:])
		}

		wantPop := scalarPopcountSum(a)
		wantFirst := scalarFirstNonzero(a)
		wantSpan := scalarSpanLess(u32, v)

		for _, backend := range simdBackends() {
			tab := backendTable(backend)
			if got := tab.popcountSum(a); got != wantPop {
				t.Fatalf("%s popcount = %d, scalar %d", backend, got, wantPop)
			}
			if got := tab.firstNonzero(a); got != wantFirst {
				t.Fatalf("%s firstnonzero = %d, scalar %d", backend, got, wantFirst)
			}
			if got := tab.spanLess(u32, v); got != wantSpan {
				t.Fatalf("%s spanless(%d) = %d, scalar %d", backend, v, got, wantSpan)
			}
		}
	})
}

// FuzzDenseFold drives the float64 folds — BlockAddF64's masked lane add and
// ScatterAddF64's column scatter — and the two float32 path-semiring block
// folds through every supported SIMD backend against the scalar reference,
// and FlatAddF64's edge-flat scatter through every backend against its
// definition, ScatterAddF64 applied one edge at a time; results are compared
// as raw bit patterns so NaN payloads, signed zeros and infinities all count.
func FuzzDenseFold(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0))
	seed := make([]byte, 8*70)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed, ^uint64(0), uint64(0xAAAAAAAAAAAAAAAA), math.Float64bits(1.5))
	f.Add(seed[:64], uint64(0xF0F0), uint64(0x0F0F), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte, cm, ym, mraw uint64) {
		raw := fuzzWords(data)
		vals := make([]float64, len(raw))
		for i, w := range raw {
			vals[i] = quietNaN(math.Float64frombits(w))
		}

		// BlockAddF64: k = len(vals) capped at the block width limit; the
		// y row starts from a lane-rotated view of the same floats.
		k := len(vals)
		if k > 64 {
			k = 64
		}
		xrow := vals[:k]
		yinit := make([]float64, k)
		for i := range yinit {
			yinit[i] = quietNaN(math.Float64frombits(bits.RotateLeft64(raw[i], 7)))
		}
		wantY := append([]float64(nil), yinit...)
		scalarBlockAddF64(wantY, xrow, cm, ym)

		// BlockMinPlusF32 / BlockMaxMinF32: the same bytes as float32 lanes
		// (any bit pattern, signaling NaNs too — a NaN lane group is the
		// scalar loop's), up to 64 of them; the weight is mraw's low half.
		k32 := min(len(data)/4, 64)
		x32, y32 := make([]float32, k32), make([]float32, k32)
		for i := range x32 {
			lane := binary.LittleEndian.Uint32(data[i*4:])
			x32[i] = math.Float32frombits(lane)
			y32[i] = math.Float32frombits(bits.RotateLeft32(lane, 9) ^ uint32(mraw>>32))
		}
		w32 := math.Float32frombits(uint32(mraw))
		wantMinPlus := append([]float32(nil), y32...)
		scalarBlockMinPlusF32(wantMinPlus, x32, w32, cm, ym)
		wantMaxMin := append([]float32(nil), y32...)
		scalarBlockMaxMinF32(wantMaxMin, x32, w32, cm, ym)

		// ScatterAddF64: a 256-slot destination, targets from the raw bytes
		// (duplicates folded in order), occupancy seeded from ym.
		const nDst = 256
		m := quietNaN(math.Float64frombits(mraw))
		idx := make([]uint32, len(data))
		for i, bb := range data {
			idx[i] = uint32(bb)
		}
		ywInit := [nDst / 64]uint64{ym, bits.RotateLeft64(ym, 1), ^ym, bits.RotateLeft64(ym, 33)}
		yvInit := make([]float64, nDst)
		for i := range yvInit {
			yvInit[i] = quietNaN(math.Float64frombits(uint64(i)*0x9E3779B97F4A7C15 ^ mraw))
		}
		wantW := ywInit
		wantV := append([]float64(nil), yvInit...)
		scalarScatterAddF64(wantW[:], wantV, idx, m)

		// FlatAddF64: the same destinations, each edge's message gathered
		// from x = vals (one slot at least) through a source index cut from
		// the raw bytes; the oracle is the column scatter applied edge by edge.
		x := append(vals, m)
		wantFlatW := ywInit
		wantFlatV := append([]float64(nil), yvInit...)
		src := make([]uint32, len(idx))
		for i := range src {
			src[i] = uint32(bits.RotateLeft8(data[i], 3)^byte(i)) % uint32(len(x))
			scalarScatterAddF64(wantFlatW[:], wantFlatV, idx[i:i+1], x[src[i]])
		}

		for _, backend := range Supported() {
			tab := backendTable(backend)
			gotW := ywInit
			gotV := append([]float64(nil), yvInit...)
			tab.flatAddF64(gotW[:], gotV, idx, src, x)
			if gotW != wantFlatW {
				t.Fatalf("%s flatadd: mask %#x, edge-by-edge scatter %#x", backend, gotW, wantFlatW)
			}
			for i := range gotV {
				if math.Float64bits(gotV[i]) != math.Float64bits(wantFlatV[i]) {
					t.Fatalf("%s flatadd: y[%d] = %v (%#x), edge-by-edge scatter %v (%#x)",
						backend, i, gotV[i], math.Float64bits(gotV[i]), wantFlatV[i], math.Float64bits(wantFlatV[i]))
				}
			}
		}

		for _, backend := range simdBackends() {
			tab := backendTable(backend)

			gotY := append([]float64(nil), yinit...)
			tab.blockAddF64(gotY, xrow, cm, ym)
			for i := range gotY {
				if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("%s blockadd: lane %d = %v (%#x), scalar %v (%#x)",
						backend, i, gotY[i], math.Float64bits(gotY[i]), wantY[i], math.Float64bits(wantY[i]))
				}
			}

			for _, f32 := range []struct {
				name string
				fold func(yrow, xrow []float32, w float32, cm, ym uint64)
				want []float32
			}{
				{"blockminplus", tab.blockMinPlusF32, wantMinPlus},
				{"blockmaxmin", tab.blockMaxMinF32, wantMaxMin},
			} {
				got := append([]float32(nil), y32...)
				f32.fold(got, x32, w32, cm, ym)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(f32.want[i]) {
						t.Fatalf("%s %s: lane %d = %#x, scalar %#x (x %#x, y %#x, w %#x, cm %#x, ym %#x)", backend, f32.name, i,
							math.Float32bits(got[i]), math.Float32bits(f32.want[i]), math.Float32bits(x32[i]), math.Float32bits(y32[i]), math.Float32bits(w32), cm, ym)
					}
				}
			}

			gotW := ywInit
			gotV := append([]float64(nil), yvInit...)
			tab.scatterAddF64(gotW[:], gotV, idx, m)
			if gotW != wantW {
				t.Fatalf("%s scatteradd: mask %#x, scalar %#x", backend, gotW, wantW)
			}
			for i := range gotV {
				if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
					t.Fatalf("%s scatteradd: y[%d] = %v (%#x), scalar %v (%#x)",
						backend, i, gotV[i], math.Float64bits(gotV[i]), wantV[i], math.Float64bits(wantV[i]))
				}
			}
		}
	})
}
