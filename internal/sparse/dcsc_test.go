package sparse

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// column returns the rows and values of the column m stores for col, nils
// when it stores none, found through the column index as the push walk finds
// it.
func column[E any](m *DCSC[E], col uint32) ([]uint32, []E) {
	ci, ok := m.FindColumn(col)
	if !ok {
		return nil, nil
	}
	s, e := m.CP[ci], m.CP[ci+1]
	return m.IR[s:e], m.Val[s:e]
}

// randCOO builds a random deduplicated col-major sorted COO.
func randCOO(seed int64, nrows, ncols uint32, nnz int) *COO[int] {
	r := rand.New(rand.NewSource(seed))
	c := NewCOO[int](nrows, ncols)
	for i := 0; i < nnz; i++ {
		c.Add(uint32(r.Intn(int(nrows))), uint32(r.Intn(int(ncols))), r.Intn(1000))
	}
	c.SortColMajor()
	c.DedupKeepFirst()
	return c
}

func TestBuildDCSCSmall(t *testing.T) {
	// The Figure 1 graph: edges A->B, A->C, B->D, C->D with A,B,C,D = 0..3.
	// Adjacency matrix A has A[src][dst]=1; we store A^T so column=src.
	c := NewCOO[int](4, 4)
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		c.Add(e[1], e[0], 1) // row=dst, col=src: this is G^T
	}
	c.SortColMajor()
	m := BuildDCSC(c, 0, 4)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if m.NZColumns() != 3 { // sources 0,1,2 have out-edges; 3 has none
		t.Fatalf("NZColumns = %d, want 3", m.NZColumns())
	}
	rows, _ := column(m, 0)
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Errorf("Column(0) rows = %v, want [1 2]", rows)
	}
	rows, _ = column(m, 3)
	if rows != nil {
		t.Errorf("Column(3) = %v, want nil", rows)
	}
}

func TestDCSCRoundTrip(t *testing.T) {
	c := randCOO(1, 50, 40, 300)
	m := BuildDCSC(c, 0, 50)
	back := m.ToCOO()
	if len(back.Entries) != len(c.Entries) {
		t.Fatalf("round trip NNZ %d != %d", len(back.Entries), len(c.Entries))
	}
	for i := range c.Entries {
		if back.Entries[i] != c.Entries[i] {
			t.Errorf("entry %d: %v != %v", i, back.Entries[i], c.Entries[i])
		}
	}
}

func TestDCSCRowRange(t *testing.T) {
	c := randCOO(2, 100, 100, 500)
	m := BuildDCSC(c, 25, 75)
	m.Iterate(func(r, _ uint32, _ int) {
		if r < 25 || r >= 75 {
			t.Fatalf("row %d outside [25,75)", r)
		}
	})
	want := 0
	for _, e := range c.Entries {
		if e.Row >= 25 && e.Row < 75 {
			want++
		}
	}
	if m.NNZ() != want {
		t.Errorf("NNZ = %d, want %d", m.NNZ(), want)
	}
}

// TestEdgeCols holds the memoized per-edge column array to the traversal
// order: EdgeCols()[k] is the column Iterate reports for the k-th edge, on a
// partition of a hypersparse matrix, one whose range ends off a 64-row
// boundary and an empty one. The row mask built with it has one bit per row
// of the range, set exactly for the rows Iterate reports.
func TestEdgeCols(t *testing.T) {
	for _, m := range []*DCSC[int]{
		BuildDCSC(randCOO(3, 256, 4096, 900), 64, 192),
		BuildDCSC(randCOO(5, 200, 200, 700), 128, 200),
		BuildDCSC(NewCOO[int](8, 8), 0, 8),
	} {
		cols := m.EdgeCols()
		if len(cols) != m.NNZ() {
			t.Fatalf("EdgeCols has %d entries for %d edges", len(cols), m.NNZ())
		}
		wantRows := make([]uint64, (m.RowHi-m.RowLo+63)/64)
		k := 0
		m.Iterate(func(row, col uint32, _ int) {
			if cols[k] != col {
				t.Fatalf("EdgeCols()[%d] = %d, edge %d lies in column %d", k, cols[k], k, col)
			}
			wantRows[(row-m.RowLo)>>6] |= 1 << ((row - m.RowLo) & 63)
			k++
		})
		if again := m.EdgeCols(); len(again) > 0 && &again[0] != &cols[0] {
			t.Error("second EdgeCols call rebuilt the array")
		}
		if rows := m.RowMask(); rows == nil || !slices.Equal(rows, wantRows) {
			t.Errorf("rows [%d, %d): row mask %#x, want %#x", m.RowLo, m.RowHi, rows, wantRows)
		}
	}
}

// TestRowIndex holds the memoized row-major view to the stored entries: row
// by row it lists exactly the sources of the structure's entries of that
// row, ascending — on a partition of a hypersparse matrix
// (most rows of the range empty), a dense one, and an empty partition.
func TestRowIndex(t *testing.T) {
	for name, m := range map[string]*DCSC[int]{
		"hypersparse": BuildDCSC(randCOO(3, 256, 4096, 90), 64, 192),
		"dense":       BuildDCSC(randCOO(4, 128, 96, 5000), 64, 128),
		"empty":       BuildDCSC(NewCOO[int](8, 8), 0, 8),
	} {
		idx := m.RowIndex()
		if idx.RowLo != m.RowLo || len(idx.Ptr) != int(m.RowHi-m.RowLo)+1 || len(idx.Src) != m.NNZ() {
			t.Fatalf("%s: RowIndex from row %d with %d pointers and %d sources; structure covers [%d, %d) with %d",
				name, idx.RowLo, len(idx.Ptr), len(idx.Src), m.RowLo, m.RowHi, m.NNZ())
		}
		// Iterate is column-major with columns ascending, so appending each
		// entry to its row's lists leaves every list in ascending source order.
		wantSrc := make([][]uint32, m.RowHi-m.RowLo)
		m.Iterate(func(row, col uint32, _ int) {
			wantSrc[row-m.RowLo] = append(wantSrc[row-m.RowLo], col)
		})
		empty := 0
		for r, w := range wantSrc {
			lo, hi := idx.Ptr[r], idx.Ptr[r+1]
			if !slices.Equal(idx.Src[lo:hi], w) {
				t.Fatalf("%s: row %d = %v, want %v", name, int(m.RowLo)+r, idx.Src[lo:hi], w)
			}
			if len(w) == 0 {
				empty++
			}
		}
		if name == "hypersparse" && empty == 0 {
			t.Errorf("fixture: no empty row in the hypersparse partition")
		}
		if again := m.RowIndex(); again != idx {
			t.Errorf("%s: second RowIndex call rebuilt the view", name)
		}
	}
}

func TestDCSCEmpty(t *testing.T) {
	c := NewCOO[int](10, 10)
	c.SortColMajor()
	m := BuildDCSC(c, 0, 10)
	if m.NNZ() != 0 || m.NZColumns() != 0 {
		t.Error("empty matrix has nonzeros")
	}
	rows, _ := column(m, 5)
	if rows != nil {
		t.Error("Column on empty matrix returned data")
	}
	m.Iterate(func(_, _ uint32, _ int) { t.Error("Iterate on empty matrix") })
}

// Property: partitions tile the matrix exactly — every entry appears in
// exactly one partition, and all partitions together reproduce the input.
func TestQuickPartitionsTile(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		nparts := int(partsRaw%7) + 1
		c := randCOO(seed, 64, 64, 400)
		parts := BuildPartitionedDCSCParallel(c, nparts, 1)
		if len(parts) != nparts {
			return false
		}
		total := 0
		seen := make(map[[2]uint32]bool)
		for _, p := range parts {
			p.Iterate(func(r, cc uint32, _ int) {
				if r < p.RowLo || r >= p.RowHi {
					t.Errorf("entry (%d,%d) outside partition [%d,%d)", r, cc, p.RowLo, p.RowHi)
				}
				key := [2]uint32{r, cc}
				if seen[key] {
					t.Errorf("entry (%d,%d) in two partitions", r, cc)
				}
				seen[key] = true
				total++
			})
		}
		return total == len(c.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Column agrees with a map-of-slices reference for every column.
func TestQuickColumnLookup(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 40, 40, 200)
		m := BuildDCSC(c, 0, 40)
		ref := make(map[uint32][]uint32)
		for _, e := range c.Entries {
			ref[e.Col] = append(ref[e.Col], e.Row)
		}
		for col := uint32(0); col < 40; col++ {
			rows, _ := column(m, col)
			if len(rows) != len(ref[col]) {
				return false
			}
			for i := range rows {
				if rows[i] != ref[col][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRowsBalance(t *testing.T) {
	// A skewed weight distribution: first row has huge weight.
	weights := make([]uint32, 1024)
	weights[0] = 100000
	for i := 1; i < 1024; i++ {
		weights[i] = 10
	}
	b := PartitionRows(weights, 4)
	if len(b) != 5 {
		t.Fatalf("got %d bounds, want 5", len(b))
	}
	if b[0] != 0 || b[4] != 1024 {
		t.Fatalf("bounds endpoints wrong: %v", b)
	}
	for i := 1; i < 5; i++ {
		if b[i] < b[i-1] {
			t.Fatalf("bounds not monotone: %v", b)
		}
		if b[i]%64 != 0 && b[i] != 1024 {
			t.Fatalf("interior bound %d not 64-aligned: %v", b[i], b)
		}
	}
	// The heavy row should isolate partition 0 to roughly just itself
	// (one aligned block).
	if b[1] > 64 {
		t.Errorf("heavy first row not isolated: bounds %v", b)
	}
}

func TestPartitionRowsDegenerate(t *testing.T) {
	if b := PartitionRows(nil, 3); b[3] != 0 {
		t.Errorf("empty weights: %v", b)
	}
	b := PartitionRows([]uint32{5}, 4)
	if b[4] != 1 {
		t.Errorf("single row: %v", b)
	}
	b = PartitionRows([]uint32{1, 1, 1}, 1)
	if b[0] != 0 || b[1] != 3 {
		t.Errorf("one partition: %v", b)
	}
}

// TestQuickAuxIndex, named for the AUX bucket index the column index
// replaced, cross-checks FindColumn against a binary search over JC on
// hypersparse random matrices, including absent columns, and asserts the
// index spans exactly the words JC occupies: one bitmap word and one rank
// per 64 ids from JC's first id to its last.
func TestQuickAuxIndex(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 64, 1<<14, 300) // hypersparse: few columns occupied
		m := BuildDCSC(c, 0, 64)
		x := m.ColumnIndex()
		if len(m.JC) == 0 {
			return len(x.Bits) == 0 && len(x.Rank) == 0
		}
		span := int(m.JC[len(m.JC)-1]>>6) - int(m.JC[0]>>6) + 1
		if len(x.Bits) != span || len(x.Rank) != span {
			t.Fatalf("index over %d words: %d bitmap words, %d ranks", span, len(x.Bits), len(x.Rank))
		}
		for col := uint32(0); col < m.NCols; col += 7 {
			gi, gok := m.FindColumn(col)
			wi, wok := slices.BinarySearch(m.JC, col)
			if gok != wok || (gok && gi != wi) {
				t.Fatalf("FindColumn(%d) index=(%d,%v) search=(%d,%v)", col, gi, gok, wi, wok)
			}
		}
		for i, col := range m.JC {
			if ci, ok := m.FindColumn(col); !ok || ci != i {
				t.Fatalf("present column %d at %d: FindColumn = (%d, %v)", col, i, ci, ok)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAuxIndexEmptyAndDense, named for the AUX index the column index
// replaced, looks columns up in an empty matrix, which has no index words,
// and in a fully dense one, where every id is stored.
func TestAuxIndexEmptyAndDense(t *testing.T) {
	empty := BuildDCSC(NewCOO[int](16, 16), 0, 16)
	if _, ok := empty.FindColumn(3); ok {
		t.Error("empty matrix claims a column")
	}
	if x := empty.ColumnIndex(); len(x.Bits) != 0 {
		t.Errorf("empty matrix indexes %d words", len(x.Bits))
	}
	dense := NewCOO[int](8, 8)
	for r := uint32(0); r < 8; r++ {
		for col := uint32(0); col < 8; col++ {
			dense.Add(r, col, int(r*8+col))
		}
	}
	dense.SortColMajor()
	m := BuildDCSC(dense, 0, 8)
	for col := uint32(0); col < 8; col++ {
		ci, ok := m.FindColumn(col)
		if !ok || m.JC[ci] != col {
			t.Errorf("dense FindColumn(%d) = (%d, %v)", col, ci, ok)
		}
	}
	if _, ok := m.FindColumn(8); ok {
		t.Error("dense matrix claims a column past NCols")
	}
}

// FuzzColumnIndex holds the column index to a linear search of JC: random
// column sets over random NCols — empty, one column, the word edges 0, 63,
// 64 and NCols-1, fully dense words, hypersparse spans — assembled as deltas
// whose empty columns are tombstones. FindColumn must agree with the search
// for every id up to a word past NCols, and the bitmap must hold exactly
// one bit per stored column.
func FuzzColumnIndex(f *testing.F) {
	f.Add(uint32(0), uint8(0), false, int64(1))      // empty
	f.Add(uint32(1), uint8(255), false, int64(2))    // one column
	f.Add(uint32(130), uint8(0), true, int64(3))     // only the word edges
	f.Add(uint32(4096), uint8(255), false, int64(4)) // every word full
	f.Add(uint32(1<<14), uint8(2), true, int64(5))   // hypersparse
	f.Add(uint32(1000), uint8(128), true, int64(6))  // half full, ragged last word
	f.Fuzz(func(t *testing.T, ncols uint32, fill uint8, edges bool, seed int64) {
		ncols %= 1 << 16
		r := rand.New(rand.NewSource(seed))
		var jc []uint32
		for j := uint32(0); j < ncols; j++ {
			edge := j == 0 || j == 63 || j == 64 || j == ncols-1
			if (edges && edge) || r.Intn(255) < int(fill) {
				jc = append(jc, j)
			}
		}
		cp := make([]uint32, len(jc)+1)
		var ir []uint32
		var val []int
		for i := range jc {
			if r.Intn(3) > 0 { // else an empty column: a tombstone
				ir, val = append(ir, 0), append(val, i)
			}
			cp[i+1] = uint32(len(ir))
		}
		m := Assemble(1, ncols, 0, 1, jc, cp, ir, val)
		for j := uint32(0); j < ncols+64; j++ {
			want, wok := slices.Index(jc, j), slices.Contains(jc, j)
			if got, ok := m.FindColumn(j); ok != wok || (ok && got != want) {
				t.Fatalf("FindColumn(%d) = (%d, %v), linear search (%d, %v)", j, got, ok, want, wok)
			}
		}
		set := 0
		for _, w := range m.ColumnIndex().Bits {
			set += bits.OnesCount64(w)
		}
		if set != len(jc) {
			t.Fatalf("bitmap holds %d columns, JC %d", set, len(jc))
		}
	})
}

// TestColumnIndexMalformedJC builds the index over JC arrays a shape-checked
// mapped file could carry — descending, duplicated, past NCols — and looks
// every id up: each answer may be wrong, but none may panic or point outside
// JC.
func TestColumnIndexMalformedJC(t *testing.T) {
	for _, jc := range [][]uint32{
		{9, 3, 5},
		{4, 4, 4},
		{200, 0, 130, 64},
		{7, 1 << 31, 2},
		{^uint32(0)},
	} {
		m := &DCSC[int]{NRows: 1, NCols: 256, JC: jc, CP: make([]uint32, len(jc)+1)}
		for j := uint32(0); j < 512; j++ {
			if ci, ok := m.FindColumn(j); ok && (ci < 0 || ci >= len(jc)) {
				t.Errorf("JC %v: FindColumn(%d) = %d, outside JC", jc, j, ci)
			}
		}
	}
}

// TestColumnIndexRace races the first FindColumn on a fresh partition from 8
// goroutines: one builds the index, every caller reads that one copy, and
// all agree with the serial answer.
func TestColumnIndexRace(t *testing.T) {
	ref := BuildDCSC(randCOO(7, 64, 1<<12, 2000), 0, 64)
	m := BuildDCSC(randCOO(7, 64, 1<<12, 2000), 0, 64)
	const racers = 8
	idx := make([]*ColumnIndex, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := uint32(i); j < m.NCols; j += racers {
				gi, gok := m.FindColumn(j)
				if wi, wok := ref.FindColumn(j); gi != wi || gok != wok {
					t.Errorf("racer %d: FindColumn(%d) = (%d, %v), want (%d, %v)", i, j, gi, gok, wi, wok)
					return
				}
			}
			idx[i] = m.ColumnIndex()
		}()
	}
	close(start)
	wg.Wait()
	for i, x := range idx {
		if x != idx[0] {
			t.Errorf("racer %d read a second copy of the column index", i)
		}
	}
}
