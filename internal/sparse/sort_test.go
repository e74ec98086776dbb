package sparse

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// cmpRowMajor orders triples by (row, col) and leaves equal keys equal, so a
// stable sort keeps their input order: the oracle the counting sort must
// match entry for entry.
func cmpRowMajor(a, b Triple[float32]) int {
	if a.Row != b.Row {
		return int(a.Row) - int(b.Row)
	}
	return int(a.Col) - int(b.Col)
}

// stableSorted returns entries stably sorted by (row, col), or by (col, row)
// when byCol.
func stableSorted(entries []Triple[float32], byCol bool) []Triple[float32] {
	out := slices.Clone(entries)
	cmp := cmpRowMajor
	if byCol {
		cmp = func(a, b Triple[float32]) int {
			return cmpRowMajor(Triple[float32]{Row: a.Col, Col: a.Row}, Triple[float32]{Row: b.Col, Col: b.Row})
		}
	}
	slices.SortStableFunc(out, cmp)
	return out
}

// FuzzCountingSort: SortRowMajor, SortColMajor and their Parallel forms at 1–8
// workers equal slices.SortStableFunc entry for entry. Each value is the
// entry's input position, so any reordering of equal keys shows. Dimensions
// are 1–256 a side, non-square included, and ids lie inside them.
func FuzzCountingSort(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})                                   // m = 0, n = 1
	f.Add(uint8(0), uint8(0), []byte{0, 0})                               // m = 1, n = 1
	f.Add(uint8(1), uint8(1), []byte{1, 1})                               // m = 1, n = 2, ids n−1
	f.Add(uint8(1), uint8(1), []byte{1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1}) // duplicates
	f.Add(uint8(2), uint8(6), []byte{2, 6, 0, 3, 2, 6, 1, 0, 2, 6, 0, 3}) // non-square, ids n−1
	f.Add(uint8(9), uint8(1), []byte{9, 1, 9, 1, 9, 1, 0, 0, 9, 1, 0, 0}) // values differ only by position
	dup := make([]byte, 600)
	for i := range dup {
		dup[i] = byte(i*7) % 4
	}
	f.Add(uint8(3), uint8(3), dup) // m = 300 over 16 keys: 8 chunks per pass
	// Already in row-major order (so col-major sorts it for real), and the
	// same with its last pair swapped: the sortedness check must not stop
	// one entry short. Equal keys with different values stay in input order.
	f.Add(uint8(3), uint8(4), []byte{0, 0, 0, 2, 0, 2, 1, 1, 2, 0, 2, 4, 3, 3})
	f.Add(uint8(3), uint8(4), []byte{0, 0, 0, 2, 0, 2, 1, 1, 2, 0, 3, 3, 2, 4})
	// Already in col-major order, and the same with its last pair swapped.
	f.Add(uint8(4), uint8(2), []byte{0, 0, 3, 0, 1, 1, 1, 1, 4, 1, 2, 2})
	f.Add(uint8(4), uint8(2), []byte{0, 0, 3, 0, 1, 1, 1, 1, 2, 2, 4, 1})
	f.Fuzz(func(t *testing.T, rowSel, colSel uint8, ids []byte) {
		nrows, ncols := uint32(rowSel)+1, uint32(colSel)+1
		c := NewCOO[float32](nrows, ncols)
		for i := 0; i+1 < len(ids); i += 2 {
			c.Add(uint32(ids[i])%nrows, uint32(ids[i+1])%ncols, float32(len(c.Entries)))
		}
		for _, byCol := range []bool{false, true} {
			want := stableSorted(c.Entries, byCol)
			sorts := map[string]func(*COO[float32]){"serial": (*COO[float32]).SortRowMajor}
			if byCol {
				sorts["serial"] = (*COO[float32]).SortColMajor
			}
			for w := 1; w <= 8; w++ {
				sorts[fmt.Sprintf("workers=%d", w)] = func(got *COO[float32]) {
					if byCol {
						got.SortColMajorParallel(w)
					} else {
						got.SortRowMajorParallel(w)
					}
				}
			}
			for name, sort := range sorts {
				got := c.Clone()
				sort(got)
				if !slices.Equal(got.Entries, want) {
					t.Fatalf("%dx%d byCol=%v %s:\n got %v\nwant %v", nrows, ncols, byCol, name, got.Entries, want)
				}
			}
		}
	})
}

// TestSortPanicsOutsideMatrix: the sort's precondition is every entry inside
// the matrix; a violation panics on the calling goroutine, at any worker
// count, naming the entry and the dimensions.
func TestSortPanicsOutsideMatrix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, byCol := range []bool{false, true} {
			c := NewCOO[float32](2, 3)
			for i := 0; i < 24; i++ {
				c.Add(uint32(i%2), uint32(i%3), 0)
			}
			c.Entries[17] = Triple[float32]{Row: 1, Col: 3}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				if byCol {
					c.SortColMajorParallel(workers)
				} else {
					c.SortRowMajorParallel(workers)
				}
				return ""
			}()
			if want := "entry 17 (1,3) outside 2x3 matrix"; !strings.Contains(msg, want) {
				t.Errorf("workers=%d byCol=%v: panic %q, want it to name %q", workers, byCol, msg, want)
			}
		}
	}
}

// TestSortSortedAllocatesNothing: an input already in the requested order
// inside the matrix is left as it is, at every worker count, without the
// counting passes' buffer or histograms — the sort of every graph build,
// whose transposed input is a row-major sorted adjacency.
func TestSortSortedAllocatesNothing(t *testing.T) {
	c := NewCOO[float32](64, 64)
	for i := 0; i < 4096; i++ {
		c.Add(uint32(i/64), uint32(i*7%64), float32(i))
	}
	c.SortRowMajor()
	want := slices.Clone(c.Entries)
	for _, workers := range []int{1, 4} {
		if allocs := testing.AllocsPerRun(20, func() { c.SortRowMajorParallel(workers) }); allocs != 0 {
			t.Errorf("workers=%d: a row-major sorted input allocated %v times", workers, allocs)
		}
		if !slices.Equal(c.Entries, want) {
			t.Fatalf("workers=%d: sorting a sorted input moved entries", workers)
		}
	}
	c.Transpose()
	if allocs := testing.AllocsPerRun(20, c.SortColMajor); allocs != 0 {
		t.Errorf("a transposed row-major input allocated %v times in a col-major sort", allocs)
	}
	c.Entries[17], c.Entries[18] = c.Entries[18], c.Entries[17]
	c.SortColMajor()
	if !slices.IsSortedFunc(c.Entries, func(a, b Triple[float32]) int {
		return cmpRowMajor(Triple[float32]{Row: a.Col, Col: a.Row}, Triple[float32]{Row: b.Col, Col: b.Row})
	}) {
		t.Fatal("an input out of order by one swap stayed unsorted")
	}
}
