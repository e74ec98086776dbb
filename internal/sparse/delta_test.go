package sparse

import (
	"math/rand"
	"testing"
)

// buildCOO returns a col-major sorted, deduplicated COO from triples.
func buildCOO(n uint32, entries [][3]int) *COO[int] {
	c := NewCOO[int](n, n)
	for _, e := range entries {
		c.Add(uint32(e[0]), uint32(e[1]), e[2])
	}
	c.SortColMajor()
	c.DedupKeepFirst()
	return c
}

// applyMuts computes the expected live triple set by brute force.
func applyMuts(c *COO[int], muts []Mut[int], rowLo, rowHi uint32) map[[2]uint32]int {
	live := map[[2]uint32]int{}
	for _, t := range c.Entries {
		if t.Row >= rowLo && t.Row < rowHi {
			live[[2]uint32{t.Row, t.Col}] = t.Val
		}
	}
	for _, m := range muts {
		if m.Row < rowLo || m.Row >= rowHi {
			continue
		}
		if m.Del {
			delete(live, [2]uint32{m.Row, m.Col})
		} else {
			live[[2]uint32{m.Row, m.Col}] = m.Val
		}
	}
	return live
}

// collect walks the overlay and checks column-major visit order.
func collect(t *testing.T, l Layered[int]) map[[2]uint32]int {
	t.Helper()
	got := map[[2]uint32]int{}
	lastCol, lastRow := int64(-1), int64(-1)
	l.Iterate(func(row, col uint32, val int) {
		if int64(col) < lastCol || (int64(col) == lastCol && int64(row) <= lastRow) {
			t.Fatalf("overlay iteration out of order: (%d,%d) after (%d,%d)", row, col, lastRow, lastCol)
		}
		lastCol, lastRow = int64(col), int64(row)
		if _, dup := got[[2]uint32{row, col}]; dup {
			t.Fatalf("overlay yielded (%d,%d) twice", row, col)
		}
		got[[2]uint32{row, col}] = val
	})
	return got
}

func sortMuts(muts []Mut[int]) []Mut[int] {
	out := append([]Mut[int]{}, muts...)
	for i := 1; i < len(out); i++ { // insertion sort: tiny test inputs
		for j := i; j > 0 && (out[j].Col < out[j-1].Col || (out[j].Col == out[j-1].Col && out[j].Row < out[j-1].Row)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestMergeDeltaAgainstBruteForce(t *testing.T) {
	base := buildCOO(10, [][3]int{
		{0, 0, 1}, {3, 0, 2}, {7, 0, 3}, // col 0 spanning both halves
		{2, 2, 4}, {9, 2, 5},
		{5, 5, 6},
		{1, 9, 7}, {8, 9, 8},
	})
	cases := []struct {
		name string
		muts []Mut[int]
	}{
		{"insert_new_column", []Mut[int]{{Row: 4, Col: 3, Val: 40}}},
		{"insert_into_existing", []Mut[int]{{Row: 1, Col: 0, Val: 41}, {Row: 9, Col: 0, Val: 42}}},
		{"upsert_existing", []Mut[int]{{Row: 3, Col: 0, Val: 43}}},
		{"delete_entry", []Mut[int]{{Row: 2, Col: 2, Del: true}}},
		{"delete_whole_column", []Mut[int]{{Row: 5, Col: 5, Del: true}}},
		{"delete_missing", []Mut[int]{{Row: 6, Col: 6, Del: true}}},
		{"mixed", []Mut[int]{
			{Row: 0, Col: 0, Del: true}, {Row: 2, Col: 0, Val: 50},
			{Row: 9, Col: 2, Del: true}, {Row: 2, Col: 2, Del: true},
			{Row: 4, Col: 4, Val: 51}, {Row: 8, Col: 9, Val: 52},
		}},
	}
	bounds := [][2]uint32{{0, 10}, {0, 5}, {5, 10}}
	for _, tc := range cases {
		for _, b := range bounds {
			dc := BuildDCSC(base, b[0], b[1])
			// Restrict muts to the partition range, as the caller contract says.
			var muts []Mut[int]
			for _, m := range sortMuts(tc.muts) {
				if m.Row >= b[0] && m.Row < b[1] {
					muts = append(muts, m)
				}
			}
			delta := MergeDelta(dc, nil, muts)
			l := Layered[int]{Base: dc, Delta: delta}
			want := applyMuts(base, tc.muts, b[0], b[1])
			got := collect(t, l)
			if len(got) != len(want) {
				t.Fatalf("%s rows[%d,%d): %d live entries, want %d", tc.name, b[0], b[1], len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s rows[%d,%d): entry %v = %d, want %d", tc.name, b[0], b[1], k, got[k], v)
				}
			}
			if n := l.LiveNNZ(); n != len(want) {
				t.Errorf("%s rows[%d,%d): LiveNNZ = %d, want %d", tc.name, b[0], b[1], n, len(want))
			}
			wantCols := map[uint32]bool{}
			for k := range want {
				wantCols[k[1]] = true
			}
			if n := l.LiveNZColumns(); n != len(wantCols) {
				t.Errorf("%s rows[%d,%d): LiveNZColumns = %d, want %d", tc.name, b[0], b[1], n, len(wantCols))
			}
		}
	}
}

// TestMergeDeltaStacked applies a second batch on top of an existing delta:
// overrides must compose (the prior override, not the base, is the merge
// input) and untouched overrides must carry over.
func TestMergeDeltaStacked(t *testing.T) {
	base := buildCOO(8, [][3]int{{1, 1, 10}, {2, 1, 11}, {4, 4, 12}})
	dc := BuildDCSC(base, 0, 8)
	d1 := MergeDelta(dc, nil, sortMuts([]Mut[int]{
		{Row: 3, Col: 1, Val: 20},   // insert into col 1
		{Row: 4, Col: 4, Del: true}, // empty col 4 (tombstone)
		{Row: 0, Col: 6, Val: 21},   // new col 6
	}))
	d2 := MergeDelta(dc, d1, sortMuts([]Mut[int]{
		{Row: 3, Col: 1, Del: true}, // undo the col-1 insert
		{Row: 4, Col: 4, Val: 22},   // resurrect col 4 with a new value
	}))
	l := Layered[int]{Base: dc, Delta: d2}
	got := collect(t, l)
	want := map[[2]uint32]int{
		{1, 1}: 10, {2, 1}: 11, // col 1 back to base content (via override)
		{4, 4}: 22, // resurrected
		{0, 6}: 21, // untouched override carried over
	}
	if len(got) != len(want) {
		t.Fatalf("live entries = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %v = %d, want %d", k, got[k], v)
		}
	}
	// Column must be served from the override layer where one exists.
	rows, vals := l.Column(4)
	if len(rows) != 1 || rows[0] != 4 || vals[0] != 22 {
		t.Errorf("Column(4) = %v %v", rows, vals)
	}
	if rows, _ := l.Column(5); rows != nil {
		t.Errorf("Column(5) = %v, want empty", rows)
	}
}

// TestMergeDeltaRandomStacked stacks seeded random batches on one partition:
// after every batch the overlay must hold exactly the brute-force live set,
// tombstones must exist only over base columns, and the delta's arrays must be
// sized exactly (carried-over runs and merged columns fill them with no slack).
func TestMergeDeltaRandomStacked(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(14))
	var seed [][3]int
	for i := 0; i < 60; i++ {
		seed = append(seed, [3]int{rng.Intn(n), rng.Intn(n), 1 + rng.Intn(9)})
	}
	base := buildCOO(n, seed)
	for _, b := range [][2]uint32{{0, n}, {5, 17}} {
		dc := BuildDCSC(base, b[0], b[1])
		live := applyMuts(base, nil, b[0], b[1])
		var delta *DCSC[int]
		for round := 0; round < 80; round++ {
			byKey := map[[2]uint32]Mut[int]{}
			for k := rng.Intn(6); k >= 0; k-- {
				m := Mut[int]{
					Row: b[0] + uint32(rng.Intn(int(b[1]-b[0]))),
					Col: uint32(rng.Intn(n)),
					Val: 10 + round,
					Del: rng.Intn(3) == 0,
				}
				byKey[[2]uint32{m.Row, m.Col}] = m
			}
			var muts []Mut[int]
			for key, m := range byKey {
				muts = append(muts, m)
				if m.Del {
					delete(live, key)
				} else {
					live[key] = m.Val
				}
			}
			delta = MergeDelta(dc, delta, sortMuts(muts))
			got := collect(t, Layered[int]{Base: dc, Delta: delta})
			if len(got) != len(live) {
				t.Fatalf("rows[%d,%d) round %d: %d live entries, want %d", b[0], b[1], round, len(got), len(live))
			}
			for k, v := range live {
				if got[k] != v {
					t.Fatalf("rows[%d,%d) round %d: entry %v = %d, want %d", b[0], b[1], round, k, got[k], v)
				}
			}
			if delta == nil {
				continue
			}
			if cap(delta.JC) != len(delta.JC) || cap(delta.CP) != len(delta.CP) ||
				cap(delta.IR) != len(delta.IR) || cap(delta.Val) != len(delta.Val) {
				t.Fatalf("rows[%d,%d) round %d: delta arrays carry slack: JC %d/%d CP %d/%d IR %d/%d Val %d/%d", b[0], b[1], round,
					len(delta.JC), cap(delta.JC), len(delta.CP), cap(delta.CP), len(delta.IR), cap(delta.IR), len(delta.Val), cap(delta.Val))
			}
			for ci, j := range delta.JC {
				if _, inBase := dc.FindColumn(j); !inBase && delta.CP[ci] == delta.CP[ci+1] {
					t.Fatalf("rows[%d,%d) round %d: tombstone for column %d masks nothing", b[0], b[1], round, j)
				}
			}
		}
	}
}

// TestMergeDeltaTombstoneDrops checks that an override that empties a column
// the base never stored is dropped rather than kept as a pointless tombstone,
// and that emptying every override returns nil.
func TestMergeDeltaTombstoneDrops(t *testing.T) {
	base := buildCOO(4, [][3]int{{0, 0, 1}})
	dc := BuildDCSC(base, 0, 4)
	if d := MergeDelta(dc, nil, []Mut[int]{{Row: 2, Col: 2, Del: true}}); d != nil {
		t.Fatalf("delete of a missing edge produced a delta: %+v", d)
	}
	d := MergeDelta(dc, nil, []Mut[int]{{Row: 3, Col: 3, Val: 9}})
	if d == nil || d.NZColumns() != 1 {
		t.Fatalf("insert produced delta %+v", d)
	}
	d2 := MergeDelta(dc, d, []Mut[int]{{Row: 3, Col: 3, Del: true}})
	if d2 != nil {
		t.Fatalf("deleting the only override did not drop the delta: %+v", d2)
	}
	// Emptying a column the base DOES store must keep the tombstone.
	d3 := MergeDelta(dc, nil, []Mut[int]{{Row: 0, Col: 0, Del: true}})
	if d3 == nil || d3.NZColumns() != 1 || d3.NNZ() != 0 {
		t.Fatalf("tombstone for a stored column missing: %+v", d3)
	}
	l := Layered[int]{Base: dc, Delta: d3}
	if n := l.LiveNNZ(); n != 0 {
		t.Errorf("LiveNNZ with tombstone = %d", n)
	}
	if rows, _ := l.Column(0); len(rows) != 0 {
		t.Errorf("tombstoned Column(0) = %v", rows)
	}
}

// TestAssembleAuxLookup checks FindColumn over hand-assembled deltas with
// empty columns — the AUX path push kernels rely on.
func TestAssembleAuxLookup(t *testing.T) {
	jc := []uint32{2, 5, 9}
	cp := []uint32{0, 2, 2, 3} // col 5 is an empty tombstone
	ir := []uint32{1, 3, 7}
	val := []int{10, 11, 12}
	d := Assemble(16, 16, 0, 16, jc, cp, ir, val)
	for i, col := range jc {
		ci, ok := d.FindColumn(col)
		if !ok || ci != i {
			t.Fatalf("FindColumn(%d) = %d,%v", col, ci, ok)
		}
	}
	for _, col := range []uint32{0, 1, 3, 4, 6, 8, 10, 15} {
		if _, ok := d.FindColumn(col); ok {
			t.Fatalf("FindColumn(%d) found a missing column", col)
		}
	}
}
