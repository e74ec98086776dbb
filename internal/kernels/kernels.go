// Package kernels is the arch-dispatched backend layer for the engine's hot
// fold primitives (paper §4.5: the hand-tuned-backend half of GraphMat's
// thesis). It exposes the small set of monomorphic inner loops the SpMV/SpMM
// kernels and the bitvector frontier machinery spend their cycles in —
// popcount sweeps, nonzero-word scans, the layered merge's run scan, and the
// float64 and float32 folds — each with a pure-Go scalar reference
// implementation, and SIMD variants where they pay (AVX2 on amd64, NEON on
// arm64) selected once at init by a CPU feature probe.
//
// The scalar implementations are the differential oracle: every SIMD variant
// must be bit-identical to its scalar reference on every input the engine can
// produce (the parity and fuzz suites in this package enforce it), so the
// engine's own differential guarantees — pull ≡ push ≡ auto, block ≡ scalar,
// overlay ≡ fresh build — hold unchanged under every backend.
//
// Backend selection: the best backend the CPU supports wins at init; the
// GRAPHMAT_KERNEL environment variable (scalar|avx2|neon) overrides it for
// testing and benchmarking, falling back to scalar when the named backend is
// unsupported on the running CPU. Dispatch is per primitive: a backend that
// accelerates only some primitives serves the rest from the scalar reference.
package kernels

import (
	"math/bits"
	"os"
)

// Backend identifies one kernel implementation set.
type Backend uint8

const (
	// Scalar is the pure-Go reference backend, available on every
	// architecture and always bit-identical to itself: the differential
	// oracle the SIMD backends are audited against.
	Scalar Backend = iota
	// AVX2 is the amd64 backend: 256-bit integer/double vectors, gated at
	// init on CPUID (AVX2 + OS-enabled YMM state via OSXSAVE/XGETBV).
	AVX2
	// NEON is the arm64 backend: 128-bit ASIMD vectors, baseline on every
	// arm64 the Go toolchain targets, so no runtime probe is needed.
	NEON
)

// String returns the backend's GRAPHMAT_KERNEL spelling.
func (b Backend) String() string {
	switch b {
	case Scalar:
		return "scalar"
	case AVX2:
		return "avx2"
	case NEON:
		return "neon"
	}
	return "unknown"
}

// ParseBackend resolves a GRAPHMAT_KERNEL value to a Backend.
func ParseBackend(s string) (Backend, bool) {
	switch s {
	case "scalar":
		return Scalar, true
	case "avx2":
		return AVX2, true
	case "neon":
		return NEON, true
	}
	return Scalar, false
}

// EnvVar is the environment variable that overrides backend selection.
const EnvVar = "GRAPHMAT_KERNEL"

// table is one backend's implementation set. Entries a backend does not
// accelerate point at the scalar reference, so dispatch is per primitive.
// Primitives that are scalar on every backend (FlatAddF64 and the float32
// scatters) are not in it: their exported functions call the scalar
// reference directly.
type table struct {
	popcountSum   func(w []uint64) int
	firstNonzero  func(w []uint64) int
	spanLess      func(a []uint32, v uint32) int
	blockAddF64   func(yrow, xrow []float64, cm, ym uint64)
	scatterAddF64 func(yw []uint64, yvals []float64, idx []uint32, m float64)

	// float32 path-semiring block folds: (min, +) and (max, min).
	blockMinPlusF32 func(yrow, xrow []float32, w float32, cm, ym uint64)
	blockMaxMinF32  func(yrow, xrow []float32, w float32, cm, ym uint64)
}

// scalarTable is the always-available reference backend.
var scalarTable = table{
	popcountSum:   scalarPopcountSum,
	firstNonzero:  scalarFirstNonzero,
	spanLess:      scalarSpanLess,
	blockAddF64:   scalarBlockAddF64,
	scatterAddF64: scalarScatterAddF64,

	blockMinPlusF32: scalarBlockMinPlusF32,
	blockMaxMinF32:  scalarBlockMaxMinF32,
}

var (
	active        table
	activeBackend Backend
)

func init() {
	want, fromEnv := lookupEnvBackend()
	switch {
	case !fromEnv:
		activeBackend = probeBest()
	case backendSupported(want):
		activeBackend = want
	default:
		activeBackend = Scalar
	}
	active = backendTable(activeBackend)
}

func lookupEnvBackend() (Backend, bool) {
	v := os.Getenv(EnvVar)
	if v == "" {
		return Scalar, false
	}
	b, ok := ParseBackend(v)
	if !ok {
		return Scalar, false
	}
	return b, true
}

// Active returns the backend currently serving dispatch.
func Active() Backend { return activeBackend }

// Supported returns the backends the running CPU can execute, Scalar first.
// The slice is freshly allocated; callers may reorder it.
func Supported() []Backend {
	s := []Backend{Scalar}
	for _, b := range []Backend{AVX2, NEON} {
		if backendSupported(b) {
			s = append(s, b)
		}
	}
	return s
}

// ForceBackend switches dispatch to b and returns a restore function. It is
// for tests and benchmarks only: it swaps package-level function tables and
// must not race with in-flight kernel calls (run it between runs, never
// during one). Unsupported backends return ok=false and leave dispatch
// untouched.
func ForceBackend(b Backend) (restore func(), ok bool) {
	if !backendSupported(b) {
		return nil, false
	}
	prevTable, prevBackend := active, activeBackend
	active = backendTable(b)
	activeBackend = b
	return func() {
		active, activeBackend = prevTable, prevBackend
	}, true
}

// PopcountSum returns the total set-bit count of w — the word-sweep Count()
// behind frontier sizing and the kernel cost model.
func PopcountSum(w []uint64) int { return active.popcountSum(w) }

// FirstNonzero returns the index of the first nonzero word of w, or -1 if
// every word is zero — the next-set-word scan behind the push kernels'
// frontier walk and the bitvector's Any/NextSet.
func FirstNonzero(w []uint64) int { return active.firstNonzero(w) }

// SpanLess returns the length of the longest prefix of a whose elements are
// < v. On a sorted slice this is the lower bound of v — the run scan the
// pull walk uses to turn the base/delta two-pointer column merge into whole
// runs of base columns per delta column.
func SpanLess(a []uint32, v uint32) int { return active.spanLess(a, v) }

// BlockAddF64 is the dense float64 fold of the block (SpMM) kernels for
// (+, passthrough) semirings — one adjacency column's contribution to a
// destination's k-wide row, all live source columns at once:
//
//	for each source s with cm bit s set:
//	    yrow[s] = yrow[s] + xrow[s]   if ym bit s set (already reduced into)
//	    yrow[s] = xrow[s]             otherwise (first write, raw store)
//
// Lanes outside cm are untouched. len(xrow) must be >= len(yrow), and
// len(yrow) (the block width k) at most 64. Lanes are independent, so SIMD
// variants are bit-identical to the scalar reference on every input.
func BlockAddF64(yrow, xrow []float64, cm, ym uint64) { active.blockAddF64(yrow, xrow, cm, ym) }

// ScatterAddF64 is the scalar-engine float64 sum fold of one adjacency
// column: for each destination dst in idx, reduce message m into yvals[dst]
// under the occupancy mask yw —
//
//	yvals[dst] = yvals[dst] + m   if yw bit dst set
//	yvals[dst] = m                otherwise (first write), then set the bit
//
// idx entries must be < len(yvals) and yw must cover them. m must not be a
// signaling NaN: the engine only ever folds arithmetic results (which are
// never signaling), and the branchless SIMD variants would quiet one where
// the scalar reference stores it raw.
func ScatterAddF64(yw []uint64, yvals []float64, idx []uint32, m float64) {
	active.scatterAddF64(yw, yvals, idx, m)
}

// FlatAddF64 is the scalar-engine float64 sum fold of a run of adjacency
// columns that all carry a message, as one loop over their edges: edge k
// goes to destination idx[k] from source column src[k], whose message is
// x[src[k]] —
//
//	yvals[dst] = yvals[dst] + x[src[k]]   if yw bit dst set
//	yvals[dst] = x[src[k]]                otherwise (first write), then set the bit
//
// in ascending k, which is exactly ScatterAddF64 over the columns in order:
// the same adds in the same sequence, without a loop exit per column.
// len(src) must equal len(idx); src entries must be < len(x); idx and the
// signaling-NaN boundary as in ScatterAddF64. Every backend runs the scalar
// reference: the loop is a dependent gather feeding a scatter, and the column
// loop's cost was its exits, not its arithmetic.
//
// It is the masked fold of a fully-live column batch, and of a whole
// partition without a row mask. A whole partition with one does not come
// here: its sum sink (internal/core) seeds the rows the partition writes
// with −0, the exact identity of float64 +, and runs the same adds with no
// occupancy load or branch, which leaves the same bits.
func FlatAddF64(yw []uint64, yvals []float64, idx, src []uint32, x []float64) {
	scalarFlatAddF64(yw, yvals, idx, src, x)
}

// ScatterMinPlusF32 is the scalar-engine (min, +) float32 fold of one
// adjacency column — the tropical semiring of SSSP's Bellman-Ford step. For
// each destination idx[k], the candidate is m + wv[k] (message extended by
// the edge weight) and the reduction keeps the minimum:
//
//	yvals[dst] = min(yvals[dst], m+wv[k])   if yw bit dst set
//	yvals[dst] = m + wv[k]                  otherwise (first write), set bit
//
// len(wv) must equal len(idx); idx entries must be < len(yvals) with yw
// covering them. The reduction is the builtin min in the exact argument
// order the generic engine fold uses, so results are bit-identical to the
// callback loop. Every backend runs the scalar reference.
func ScatterMinPlusF32(yw []uint64, yvals []float32, idx []uint32, wv []float32, m float32) {
	scalarScatterMinPlusF32(yw, yvals, idx, wv, m)
}

// ScatterMaxMinF32 is the scalar-engine (max, min) float32 fold of one
// adjacency column — the bottleneck semiring of widest paths. The candidate
// is min(m, wv[k]) (path width capped by the edge capacity) and the
// reduction keeps the maximum. Contract as in ScatterMinPlusF32, scalar
// reference included.
func ScatterMaxMinF32(yw []uint64, yvals []float32, idx []uint32, wv []float32, m float32) {
	scalarScatterMaxMinF32(yw, yvals, idx, wv, m)
}

// BlockMinPlusF32 is the (min, +) float32 fold of the block (SpMM) kernels:
// one edge of weight w advancing all live source columns at once —
//
//	for each source s with cm bit s set:
//	    yrow[s] = min(yrow[s], xrow[s]+w)   if ym bit s set
//	    yrow[s] = xrow[s] + w               otherwise (first write)
//
// Lanes outside cm are untouched. len(xrow) >= len(yrow), len(yrow) <= 64.
// min is the builtin's — -0 below +0, a NaN if either operand is one — which
// the SIMD variants reproduce bit for bit on eight lanes at a time, leaving
// any lane group that holds a NaN to the scalar loop.
func BlockMinPlusF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	active.blockMinPlusF32(yrow, xrow, w, cm, ym)
}

// BlockMaxMinF32 is the (max, min) float32 fold of the block kernels:
// candidate min(xrow[s], w), reduction max. Contract as in BlockMinPlusF32.
func BlockMaxMinF32(yrow, xrow []float32, w float32, cm, ym uint64) {
	active.blockMaxMinF32(yrow, xrow, w, cm, ym)
}

// onesCount64 aliases math/bits for the scalar references below.
func onesCount64(x uint64) int { return bits.OnesCount64(x) }
