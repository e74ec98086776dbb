package sparse

import "graphmat/internal/bitvec"

// Vector is the sparse-vector representation the paper selects in §4.4.2:
// "a bitvector for storing valid indices and a constant (number of vertices)
// sized array with values stored only at the valid indices". Presence tests
// are O(1), the bitvector is compact enough to stay cache resident and can be
// shared read-only across SpMV worker goroutines.
type Vector[T any] struct {
	mask *bitvec.Vector
	vals []T
}

// NewVector returns an empty sparse vector of dimension n.
func NewVector[T any](n int) *Vector[T] {
	return &Vector[T]{mask: bitvec.New(n), vals: make([]T, n)}
}

// Len returns the dimension of the vector.
func (v *Vector[T]) Len() int { return v.mask.Len() }

// NNZ returns the number of set entries.
func (v *Vector[T]) NNZ() int { return v.mask.Count() }

// Set stores val at index i. Not safe for concurrent writers of nearby
// indices; the engine writes each index range from a single goroutine.
func (v *Vector[T]) Set(i uint32, val T) {
	v.vals[i] = val
	v.mask.Set(i)
}

// Has reports whether index i is set. This is the hot probe on the SpMV
// inner loop (Algorithm 1 line 4).
func (v *Vector[T]) Has(i uint32) bool { return v.mask.Get(i) }

// Get returns the value at index i; the result is meaningful only if Has(i).
func (v *Vector[T]) Get(i uint32) T { return v.vals[i] }

// GetChecked returns the value and whether it is present.
func (v *Vector[T]) GetChecked(i uint32) (T, bool) {
	if v.mask.Get(i) {
		return v.vals[i], true
	}
	var zero T
	return zero, false
}

// Clear removes index i.
func (v *Vector[T]) Clear(i uint32) { v.mask.Clear(i) }

// Reset removes all entries. Values are not zeroed — the mask is the source
// of truth, which keeps Reset O(n/64).
func (v *Vector[T]) Reset() { v.mask.Reset() }

// Iterate calls fn(i, val) for each set index in ascending order.
func (v *Vector[T]) Iterate(fn func(i uint32, val T)) {
	v.mask.Iterate(func(i uint32) { fn(i, v.vals[i]) })
}

// IterateRange calls fn(i, val) for set indices lo <= i < hi, ascending.
func (v *Vector[T]) IterateRange(lo, hi uint32, fn func(i uint32, val T)) {
	v.mask.IterateRange(lo, hi, func(i uint32) { fn(i, v.vals[i]) })
}

// Mask exposes the occupancy bitvector (shared, read-only use).
func (v *Vector[T]) Mask() *bitvec.Vector { return v.mask }

// Values exposes the backing value array; vals[i] is meaningful only when
// the mask bit i is set.
func (v *Vector[T]) Values() []T { return v.vals }

// Entry is one element of a SortedVector.
type Entry[T any] struct {
	Idx uint32
	Val T
}

// SortedVector is the paper's *other* sparse-vector option (§4.4.2): "a
// variable sized array of sorted (index, value) tuples". The paper measures
// it slower across all algorithms; it is retained as the "naive" mode of the
// Figure 7 ablation. The zero value is an empty vector.
type SortedVector[T any] struct {
	entries []Entry[T]
}

// NNZ returns the number of entries.
func (v *SortedVector[T]) NNZ() int { return len(v.entries) }

// Append adds an entry with index strictly greater than any existing one.
// Engine build loops run in ascending vertex order, so appends stay sorted.
func (v *SortedVector[T]) Append(i uint32, val T) {
	v.entries = append(v.entries, Entry[T]{Idx: i, Val: val})
}

// find returns the position of i, or len if absent.
func (v *SortedVector[T]) find(i uint32) int {
	lo, hi := 0, len(v.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.entries[mid].Idx < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.entries) && v.entries[lo].Idx == i {
		return lo
	}
	return len(v.entries)
}

// Has reports whether index i is present (binary search — the reason this
// representation loses to the bitvector in the paper's measurements).
func (v *SortedVector[T]) Has(i uint32) bool { return v.find(i) < len(v.entries) }

// Get returns the value at index i; meaningful only if Has(i).
func (v *SortedVector[T]) Get(i uint32) T {
	if p := v.find(i); p < len(v.entries) {
		return v.entries[p].Val
	}
	var zero T
	return zero
}

// Reset removes all entries, retaining capacity.
func (v *SortedVector[T]) Reset() { v.entries = v.entries[:0] }
