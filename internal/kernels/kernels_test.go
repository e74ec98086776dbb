package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// simdBackends returns every non-scalar backend the running CPU supports.
func simdBackends() []Backend {
	var out []Backend
	for _, b := range Supported() {
		if b != Scalar {
			out = append(out, b)
		}
	}
	return out
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = ^uint64(0)
		default:
			w[i] = rng.Uint64()
		}
	}
	return w
}

// wordLens covers empty, sub-block, block-aligned, and block+tail shapes for
// both the 4-word AVX2 and 2-word NEON block sizes.
var wordLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 65, 100, 257}

func TestPopcountSumParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, b := range simdBackends() {
		bt := backendTable(b)
		for _, n := range wordLens {
			for trial := 0; trial < 8; trial++ {
				w := randWords(rng, n)
				want := scalarPopcountSum(w)
				if got := bt.popcountSum(w); got != want {
					t.Fatalf("%s popcountSum n=%d: got %d, scalar %d", b, n, got, want)
				}
			}
		}
	}
}

func TestFirstNonzeroParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, b := range simdBackends() {
		bt := backendTable(b)
		for _, n := range wordLens {
			// All-zero words with one set word planted at every position,
			// plus the fully-zero slice.
			w := make([]uint64, n)
			if got := bt.firstNonzero(w); got != -1 {
				t.Fatalf("%s firstNonzero all-zero n=%d: got %d, want -1", b, n, got)
			}
			for pos := 0; pos < n; pos++ {
				for i := range w {
					w[i] = 0
				}
				w[pos] = 1 << uint(rng.Intn(64))
				// Noise after the first hit must not matter.
				for j := pos + 1; j < n; j++ {
					if rng.Intn(2) == 0 {
						w[j] = rng.Uint64()
					}
				}
				want := scalarFirstNonzero(w)
				if got := bt.firstNonzero(w); got != want {
					t.Fatalf("%s firstNonzero n=%d pos=%d: got %d, scalar %d", b, n, pos, got, want)
				}
			}
		}
	}
}

func TestSpanLessParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lens := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200}
	for _, b := range simdBackends() {
		bt := backendTable(b)
		for _, n := range lens {
			// Sorted ascending (the layered-merge shape): every possible
			// boundary value.
			a := make([]uint32, n)
			v := uint32(0)
			for i := range a {
				v += uint32(rng.Intn(5))
				a[i] = v
			}
			probes := []uint32{0, 1, v / 2, v, v + 1, math.MaxUint32}
			for i := range a {
				probes = append(probes, a[i], a[i]+1)
			}
			for _, p := range probes {
				want := scalarSpanLess(a, p)
				if got := bt.spanLess(a, p); got != want {
					t.Fatalf("%s spanLess n=%d v=%d: got %d, scalar %d (a=%v)", b, n, p, got, want, a)
				}
			}
			// Unsorted input: still a prefix-length contract.
			u := make([]uint32, n)
			for i := range u {
				u[i] = rng.Uint32()
			}
			for trial := 0; trial < 8; trial++ {
				p := rng.Uint32()
				want := scalarSpanLess(u, p)
				if got := bt.spanLess(u, p); got != want {
					t.Fatalf("%s spanLess unsorted n=%d v=%d: got %d, scalar %d", b, n, p, got, want)
				}
			}
			// High-bit values exercise the signed-compare flip.
			h := []uint32{0x7fffffff, 0x80000000, 0x80000001, 0xffffffff}
			for _, p := range []uint32{0x7fffffff, 0x80000000, 0x80000001, 0xffffffff, 0} {
				want := scalarSpanLess(h, p)
				if got := bt.spanLess(h, p); got != want {
					t.Fatalf("%s spanLess highbit v=%#x: got %d, scalar %d", b, p, got, want)
				}
			}
		}
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		switch rng.Intn(8) {
		case 0:
			f[i] = 0
		case 1:
			f[i] = math.Copysign(0, -1)
		case 2:
			f[i] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			f[i] = math.NaN()
		default:
			f[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-30)
		}
	}
	return f
}

func TestBlockAddF64Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range simdBackends() {
		bt := backendTable(b)
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 33, 63, 64} {
			for trial := 0; trial < 16; trial++ {
				x := randFloats(rng, k)
				y0 := randFloats(rng, k)
				var cm, ym uint64
				if k > 0 {
					cm = rng.Uint64()
					ym = rng.Uint64()
					if k < 64 {
						cm &= 1<<uint(k) - 1
						ym &= 1<<uint(k) - 1
					}
				}
				want := append([]float64(nil), y0...)
				got := append([]float64(nil), y0...)
				scalarBlockAddF64(want, x, cm, ym)
				bt.blockAddF64(got, x, cm, ym)
				for s := range want {
					if math.Float64bits(want[s]) != math.Float64bits(got[s]) {
						t.Fatalf("%s blockAddF64 k=%d cm=%#x ym=%#x lane %d: got %x, scalar %x",
							b, k, cm, ym, s, math.Float64bits(got[s]), math.Float64bits(want[s]))
					}
				}
			}
		}
	}
}

func TestScatterAddF64Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, b := range simdBackends() {
		bt := backendTable(b)
		for _, nv := range []int{1, 64, 65, 200} {
			words := (nv + 63) / 64
			for _, ne := range []int{0, 1, 2, 3, 4, 5, 8, 17, 100} {
				for trial := 0; trial < 8; trial++ {
					idx := make([]uint32, ne)
					for i := range idx {
						idx[i] = uint32(rng.Intn(nv)) // duplicates exercise the fold path
					}
					// m: arithmetic results only (quiet NaN allowed, no sNaN).
					ms := []float64{0, math.Copysign(0, -1), 1.5, -2.25e10, math.Inf(1), math.NaN()}
					m := ms[rng.Intn(len(ms))]

					wWords := randWords(rng, words)
					wVals := randFloats(rng, nv)
					gWords := append([]uint64(nil), wWords...)
					gVals := append([]float64(nil), wVals...)

					scalarScatterAddF64(wWords, wVals, idx, m)
					bt.scatterAddF64(gWords, gVals, idx, m)

					for i := range wWords {
						if wWords[i] != gWords[i] {
							t.Fatalf("%s scatterAddF64 nv=%d ne=%d: mask word %d = %#x, scalar %#x", b, nv, ne, i, gWords[i], wWords[i])
						}
					}
					for i := range wVals {
						if math.Float64bits(wVals[i]) != math.Float64bits(gVals[i]) {
							t.Fatalf("%s scatterAddF64 nv=%d ne=%d m=%v: val %d = %x, scalar %x",
								b, nv, ne, m, i, math.Float64bits(gVals[i]), math.Float64bits(wVals[i]))
						}
					}
				}
			}
		}
	}
}

// TestFlatAddF64Parity holds the flat sum fold — the scalar reference every
// backend runs — to its definition: ScatterAddF64 over the same columns in
// order.
func TestFlatAddF64Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nv := range []int{1, 64, 65, 200} {
		words := (nv + 63) / 64
		for _, ncols := range []int{0, 1, 2, 7, 64} {
			for trial := 0; trial < 8; trial++ {
				x := randFloats(rng, nv)
				wWords := randWords(rng, words)
				wVals := randFloats(rng, nv)
				gWords := append([]uint64(nil), wWords...)
				gVals := append([]float64(nil), wVals...)

				// Columns of 1..8 edges each (duplicate destinations
				// exercise the fold path), folded one scatter per column.
				var idx, src []uint32
				for c := 0; c < ncols; c++ {
					j := uint32(rng.Intn(nv))
					col := make([]uint32, 1+rng.Intn(8))
					for i := range col {
						col[i] = uint32(rng.Intn(nv))
						src = append(src, j)
					}
					idx = append(idx, col...)
					scalarScatterAddF64(wWords, wVals, col, x[j])
				}
				FlatAddF64(gWords, gVals, idx, src, x)

				for i := range wWords {
					if wWords[i] != gWords[i] {
						t.Fatalf("flatAddF64 nv=%d ncols=%d: mask word %d = %#x, column scatter %#x", nv, ncols, i, gWords[i], wWords[i])
					}
				}
				for i := range wVals {
					if math.Float64bits(wVals[i]) != math.Float64bits(gVals[i]) {
						t.Fatalf("flatAddF64 nv=%d ncols=%d: val %d = %x, column scatter %x",
							nv, ncols, i, math.Float64bits(gVals[i]), math.Float64bits(wVals[i]))
					}
				}
			}
		}
	}
}

// f32Specials are the bit patterns where a SIMD min/max and Go's builtins
// could part ways: signed zeros, infinities (whose sum is a NaN), the largest
// finite value (whose sum overflows), subnormals and quiet NaNs with
// distinct payloads.
var f32Specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x00000001, 0x80000001, 0x007fffff, // subnormals
	0x7fc00000, 0xffc00000, 0x7fc00abc, // quiet NaNs
}

func randFloats32(rng *rand.Rand, n int) []float32 {
	f := make([]float32, n)
	for i := range f {
		if rng.Intn(2) == 0 {
			f[i] = math.Float32frombits(f32Specials[rng.Intn(len(f32Specials))])
		} else {
			f[i] = float32((rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20))
		}
	}
	return f
}

type blockPathFoldF32 func(yrow, xrow []float32, w float32, cm, ym uint64)

// blockPathF32Parity holds every SIMD backend's f32 path-semiring block
// fold to the scalar table's, bit for bit: widths on both sides of every
// 8-lane boundary, random masks (lanes outside cm must come back untouched,
// stale NaNs included), weights and lanes drawn from f32Specials half the
// time.
func blockPathF32Parity(t *testing.T, name string, seed int64, pick func(table) blockPathFoldF32) {
	rng := rand.New(rand.NewSource(seed))
	scalar := pick(scalarTable)
	for _, b := range simdBackends() {
		fold := pick(backendTable(b))
		for k := 2; k <= 64; k++ {
			for trial := 0; trial < 48; trial++ {
				x, y0 := randFloats32(rng, k), randFloats32(rng, k)
				w := randFloats32(rng, 1)[0]
				cm, ym := rng.Uint64(), rng.Uint64()
				switch trial % 4 {
				case 0:
					cm = ^uint64(0)
				case 1:
					ym = ^uint64(0)
				}
				if k < 64 {
					cm &= 1<<uint(k) - 1
					ym &= 1<<uint(k) - 1
				}
				want := append([]float32(nil), y0...)
				got := append([]float32(nil), y0...)
				scalar(want, x, w, cm, ym)
				fold(got, x, w, cm, ym)
				for s := range want {
					if math.Float32bits(want[s]) != math.Float32bits(got[s]) {
						t.Fatalf("%s %s k=%d w=%x cm=%#x ym=%#x lane %d (x %x, y %x): got %x, scalar %x",
							b, name, k, math.Float32bits(w), cm, ym, s, math.Float32bits(x[s]), math.Float32bits(y0[s]),
							math.Float32bits(got[s]), math.Float32bits(want[s]))
					}
				}
			}
		}
	}
}

func TestBlockMinPlusF32Parity(t *testing.T) {
	blockPathF32Parity(t, "blockMinPlusF32", 8, func(tab table) blockPathFoldF32 { return tab.blockMinPlusF32 })
}

func TestBlockMaxMinF32Parity(t *testing.T) {
	blockPathF32Parity(t, "blockMaxMinF32", 9, func(tab table) blockPathFoldF32 { return tab.blockMaxMinF32 })
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range []Backend{Scalar, AVX2, NEON} {
		got, ok := ParseBackend(b.String())
		if !ok || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, ok)
		}
	}
	if _, ok := ParseBackend("sse9"); ok {
		t.Fatal("ParseBackend accepted garbage")
	}
}

func TestForceBackend(t *testing.T) {
	orig := Active()
	for _, b := range Supported() {
		restore, ok := ForceBackend(b)
		if !ok {
			t.Fatalf("ForceBackend(%v) refused a supported backend", b)
		}
		if Active() != b {
			t.Fatalf("Active() = %v after ForceBackend(%v)", Active(), b)
		}
		// Dispatch must actually serve the forced backend.
		w := []uint64{0xff, 0, 3}
		if got := PopcountSum(w); got != 10 {
			t.Fatalf("PopcountSum under %v = %d, want 10", b, got)
		}
		restore()
		if Active() != orig {
			t.Fatalf("restore left Active() = %v, want %v", Active(), orig)
		}
	}
	// Unknown backend value is refused.
	if _, ok := ForceBackend(Backend(200)); ok {
		t.Fatal("ForceBackend accepted an unknown backend")
	}
}

func TestSupportedIncludesScalarFirst(t *testing.T) {
	s := Supported()
	if len(s) == 0 || s[0] != Scalar {
		t.Fatalf("Supported() = %v, want scalar first", s)
	}
}
