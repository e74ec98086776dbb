//go:build amd64

package kernels

// amd64 backend gating: AVX2 use requires the CPUID AVX2 bit AND the OS to
// have enabled YMM state saving (OSXSAVE set and XCR0 reporting XMM+YMM),
// the same double check the Go runtime and every SIMD library perform —
// a kernel that does not context-switch YMM registers would silently corrupt
// them otherwise.

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// Probe results live in variable initializers, not an init() func: the
// backend selection in kernels.go runs from an init() too, and Go orders
// init() funcs by file name — variable initialization always happens first,
// so the selection sees a settled probe regardless of file ordering.
var hasAVX2 = probeAVX2()

func probeAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func probeBest() Backend {
	if hasAVX2 {
		return AVX2
	}
	return Scalar
}

func backendSupported(b Backend) bool {
	switch b {
	case Scalar:
		return true
	case AVX2:
		return hasAVX2
	}
	return false
}

func backendTable(b Backend) table {
	if b == AVX2 && hasAVX2 {
		t := scalarTable
		t.popcountSum = avx2PopcountSum
		t.firstNonzero = avx2FirstNonzero
		t.spanLess = avx2SpanLess
		t.blockAddF64 = avx2BlockAddF64
		t.scatterAddF64 = avx2ScatterAddF64
		t.blockMinPlusF32 = avx2BlockMinPlusF32
		t.blockMaxMinF32 = avx2BlockMaxMinF32
		return t
	}
	return scalarTable
}
