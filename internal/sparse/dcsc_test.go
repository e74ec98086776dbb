package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

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
	rows, _ := m.Column(0)
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Errorf("Column(0) rows = %v, want [1 2]", rows)
	}
	rows, _ = m.Column(3)
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
// partition of a hypersparse matrix and on an empty one.
func TestEdgeCols(t *testing.T) {
	for _, m := range []*DCSC[int]{
		BuildDCSC(randCOO(3, 256, 4096, 900), 64, 192),
		BuildDCSC(NewCOO[int](8, 8), 0, 8),
	} {
		cols := m.EdgeCols()
		if len(cols) != m.NNZ() {
			t.Fatalf("EdgeCols has %d entries for %d edges", len(cols), m.NNZ())
		}
		k := 0
		m.Iterate(func(_, col uint32, _ int) {
			if cols[k] != col {
				t.Fatalf("EdgeCols()[%d] = %d, edge %d lies in column %d", k, cols[k], k, col)
			}
			k++
		})
		if again := m.EdgeCols(); len(again) > 0 && &again[0] != &cols[0] {
			t.Error("second EdgeCols call rebuilt the array")
		}
	}
}

// TestRowIndex holds the memoized row-major view to the stored entries: row
// by row it lists exactly the structure's entries of that row, sources
// ascending, each with its value — on a partition of a hypersparse matrix
// (most rows of the range empty), a dense one, and an empty partition.
func TestRowIndex(t *testing.T) {
	for name, m := range map[string]*DCSC[int]{
		"hypersparse": BuildDCSC(randCOO(3, 256, 4096, 90), 64, 192),
		"dense":       BuildDCSC(randCOO(4, 128, 96, 5000), 64, 128),
		"empty":       BuildDCSC(NewCOO[int](8, 8), 0, 8),
	} {
		idx := m.RowIndex()
		if idx.RowLo != m.RowLo || len(idx.Ptr) != int(m.RowHi-m.RowLo)+1 || len(idx.Entries) != m.NNZ() {
			t.Fatalf("%s: RowIndex from row %d with %d pointers and %d entries; structure covers [%d, %d) with %d",
				name, idx.RowLo, len(idx.Ptr), len(idx.Entries), m.RowLo, m.RowHi, m.NNZ())
		}
		// Iterate is column-major with columns ascending, so appending each
		// entry to its row's list leaves every list in ascending source order.
		want := make([][]RowEntry[int], m.RowHi-m.RowLo)
		m.Iterate(func(row, col uint32, v int) {
			want[row-m.RowLo] = append(want[row-m.RowLo], RowEntry[int]{col, v})
		})
		empty := 0
		for r, w := range want {
			got := idx.Entries[idx.Ptr[r]:idx.Ptr[r+1]]
			if !slices.Equal(got, w) {
				t.Fatalf("%s: row %d = %v, want %v", name, int(m.RowLo)+r, got, w)
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
	rows, _ := m.Column(5)
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
		parts := BuildPartitionedDCSC(c, nparts)
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
			rows, _ := m.Column(col)
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

// TestQuickAuxIndex cross-checks the AUX bucket lookup against a plain binary
// search over JC on hypersparse random matrices, including columns that are
// absent, and asserts the index stays within its memory budget.
func TestQuickAuxIndex(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 64, 1<<14, 300) // hypersparse: few columns occupied
		m := BuildDCSC(c, 0, 64)
		if m.Aux == nil {
			return len(m.JC) == 0
		}
		if len(m.Aux) > 2*len(m.JC)+3 {
			t.Fatalf("aux over budget: %d buckets for %d columns", len(m.Aux), len(m.JC))
		}
		bare := &DCSC[int]{NRows: m.NRows, NCols: m.NCols, JC: m.JC, CP: m.CP, IR: m.IR, Val: m.Val}
		for col := uint32(0); col < m.NCols; col += 7 {
			gi, gok := m.FindColumn(col)
			wi, wok := bare.FindColumn(col) // binary-search fallback
			if gi != wi || gok != wok {
				t.Fatalf("FindColumn(%d) aux=(%d,%v) search=(%d,%v)", col, gi, gok, wi, wok)
			}
		}
		for _, col := range m.JC {
			if _, ok := m.FindColumn(col); !ok {
				t.Fatalf("present column %d not found", col)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAuxIndexEmptyAndDense(t *testing.T) {
	empty := BuildDCSC(NewCOO[int](16, 16), 0, 16)
	if _, ok := empty.FindColumn(3); ok {
		t.Error("empty matrix claims a column")
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
}
