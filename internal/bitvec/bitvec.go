// Package bitvec provides a dense bitvector used throughout GraphMat for
// sparse-vector occupancy masks and active-vertex sets (paper §4.4.2).
//
// The representation is a []uint64 word array. Setting a bit comes in a plain
// and an atomic flavor: the engine uses plain writes when a partition owns a
// disjoint index range and atomic writes when many goroutines may set bits
// concurrently (e.g. marking vertices active during Apply).
package bitvec

import (
	"math/bits"
	"sync/atomic"

	"graphmat/internal/kernels"
)

const (
	wordShift = 6
	wordMask  = 63
)

// Vector is a fixed-length dense bitvector. The zero value is an empty,
// zero-length vector; use New to size one.
type Vector struct {
	words []uint64
	n     int
}

// New returns a Vector of n bits, all clear.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+wordMask)>>wordShift), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i. It is not safe for concurrent use with other writers of the
// same word; use SetAtomic for that.
func (v *Vector) Set(i uint32) {
	v.words[i>>wordShift] |= 1 << (i & wordMask)
}

// Clear clears bit i.
func (v *Vector) Clear(i uint32) {
	v.words[i>>wordShift] &^= 1 << (i & wordMask)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i uint32) bool {
	return v.words[i>>wordShift]&(1<<(i&wordMask)) != 0
}

// SetAtomic sets bit i with a compare-and-swap loop, safe for concurrent
// writers. It reports whether this call changed the bit (false if it was
// already set), which lets callers deduplicate concurrent activations.
func (v *Vector) SetAtomic(i uint32) bool {
	w := &v.words[i>>wordShift]
	mask := uint64(1) << (i & wordMask)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Reset clears every bit.
func (v *Vector) Reset() {
	clear(v.words)
}

// SetAll sets every bit: a whole-word fill, with the last word masked so the
// bits at and beyond Len stay clear — Count, Any and the popcount frontier
// sizes read whole words and rely on that.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	if tail := v.n & wordMask; tail != 0 {
		v.words[len(v.words)-1] = 1<<tail - 1
	}
}

// Count returns the number of set bits. It is a whole-word popcount sweep
// through the kernels backend — the cheap frontier-size tally the engine's
// cost model reads once per phase instead of maintaining per-Set counters in
// the hot loops.
func (v *Vector) Count() int {
	return kernels.PopcountSum(v.words)
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	return kernels.FirstNonzero(v.words) >= 0
}

// Iterate calls fn for each set bit in ascending order.
func (v *Vector) Iterate(fn func(i uint32)) {
	for wi, w := range v.words {
		base := uint32(wi) << wordShift
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// IterateRange calls fn for each set bit i with lo <= i < hi, ascending.
func (v *Vector) IterateRange(lo, hi uint32, fn func(i uint32)) {
	if lo >= hi {
		return
	}
	first := int(lo >> wordShift)
	last := int((hi - 1) >> wordShift)
	for wi := first; wi <= last && wi < len(v.words); wi++ {
		w := v.words[wi]
		base := uint32(wi) << wordShift
		if wi == first {
			w &= ^uint64(0) << (lo & wordMask)
		}
		if wi == last && hi&wordMask != 0 {
			w &= (1 << (hi & wordMask)) - 1
		}
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Words exposes the underlying word slice for read-only word-at-a-time scans
// (used by the SpMV inner loop to skip empty regions quickly).
func (v *Vector) Words() []uint64 { return v.words }
