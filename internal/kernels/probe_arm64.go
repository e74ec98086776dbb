//go:build arm64

package kernels

// arm64 backend gating: ASIMD (NEON) is architecturally baseline on every
// arm64 the Go toolchain targets, so no runtime probe is needed — the only
// question is whether the user forced scalar via GRAPHMAT_KERNEL.

func probeBest() Backend { return NEON }

func backendSupported(b Backend) bool { return b == Scalar || b == NEON }

func backendTable(b Backend) table {
	if b == NEON {
		t := scalarTable
		t.popcountSum = neonPopcountSum
		// firstNonzero, spanLess and the float64 folds stay on the scalar
		// reference: gc's arm64 codegen already keeps those loops in
		// registers, and the branchy scan/select shapes gain little from
		// hand NEON. The dispatch table makes the split explicit.
		return t
	}
	return scalarTable
}
