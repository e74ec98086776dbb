//go:build arm64

package kernels

import "math/bits"

// NEON backend wrappers: 128-bit ASIMD bodies over whole 16-byte blocks
// (kern_arm64.s), scalar tails in Go — the same split as the AVX2 backend.

//go:noescape
func popcountBodyNEON(w *uint64, n int) int

func neonPopcountSum(w []uint64) int {
	n := len(w) &^ 1
	c := 0
	if n > 0 {
		c = popcountBodyNEON(&w[0], n)
	}
	for _, x := range w[n:] {
		c += bits.OnesCount64(x)
	}
	return c
}
