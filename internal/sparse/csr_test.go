package sparse

import (
	"testing"
	"testing/quick"
)

func buildTestCSR(t *testing.T) *CSR[int] {
	t.Helper()
	c := NewCOO[int](4, 4)
	// Figure 1 graph, forward adjacency A[src][dst].
	for _, e := range [][3]uint32{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}} {
		c.Add(e[0], e[1], int(e[2]))
	}
	c.SortRowMajor()
	return BuildCSR(c)
}

func TestCSRBasic(t *testing.T) {
	m := buildTestCSR(t)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	cols, _ := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Errorf("Row(0) = %v", cols)
	}
	if m.Degree(0) != 2 || m.Degree(3) != 0 {
		t.Errorf("degrees wrong: %d %d", m.Degree(0), m.Degree(3))
	}
	if cols, _ := m.Row(1); len(cols) != 1 || cols[0] != 3 {
		t.Errorf("Row(1) = %v, want [3]", cols)
	}
	if cols, _ := m.Row(3); len(cols) != 0 {
		t.Errorf("Row(3) = %v, want empty", cols)
	}
}

// Property: CSR round trip through COO is the identity.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 30, 30, 150)
		c.SortRowMajor()
		m := BuildCSR(c)
		back := m.ToCOO()
		if len(back.Entries) != len(c.Entries) {
			return false
		}
		for i := range c.Entries {
			if back.Entries[i] != c.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: DCSC of G^T and CSR of G contain the same edges.
func TestQuickDCSCMatchesCSRTranspose(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 32, 32, 128)
		c.SortRowMajor()
		csr := BuildCSR(c)
		ct := c.Clone()
		ct.Transpose()
		ct.SortColMajor()
		dcsc := BuildDCSC(ct, 0, 32)
		// Every CSR edge (r,c) should appear in DCSC as (row=c, col=r).
		ok := true
		csr.Iterate(func(r, cc uint32, v int) {
			rows, vals := column(dcsc, r)
			found := false
			for i, rr := range rows {
				if rr == cc && vals[i] == v {
					found = true
					break
				}
			}
			if !found {
				ok = false
			}
		})
		return ok && csr.NNZ() == dcsc.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a row has edge (r, c) exactly when a map reference does, and
// holds its columns in ascending order.
func TestQuickHasEdge(t *testing.T) {
	f := func(seed int64) bool {
		c := randCOO(seed, 20, 20, 80)
		c.SortRowMajor()
		m := BuildCSR(c)
		ref := make(map[[2]uint32]bool)
		for _, e := range c.Entries {
			ref[[2]uint32{e.Row, e.Col}] = true
		}
		for r := uint32(0); r < 20; r++ {
			cols, _ := m.Row(r)
			k := 0
			for cc := uint32(0); cc < 20; cc++ {
				if !ref[[2]uint32{r, cc}] {
					continue
				}
				if k == len(cols) || cols[k] != cc {
					return false
				}
				k++
			}
			if k != len(cols) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
