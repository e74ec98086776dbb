package sparse

// CSR is the classic compressed sparse row format. The native baselines
// (internal/baselines/native) and the reference implementations use it; the
// GraphMat engine itself uses DCSC per the paper. With rows and columns
// swapped at build time the same struct serves as a CSC.
type CSR[E any] struct {
	NRows, NCols uint32
	RowPtr       []uint32 // len NRows+1
	ColIdx       []uint32 // len NNZ, ascending within a row
	Val          []E      // len NNZ
}

// BuildCSR constructs a CSR from row-major sorted, deduplicated entries.
func BuildCSR[E any](c *COO[E]) *CSR[E] {
	m := &CSR[E]{
		NRows:  c.NRows,
		NCols:  c.NCols,
		RowPtr: make([]uint32, c.NRows+1),
		ColIdx: make([]uint32, len(c.Entries)),
		Val:    make([]E, len(c.Entries)),
	}
	for _, t := range c.Entries {
		m.RowPtr[t.Row+1]++
	}
	for r := uint32(0); r < c.NRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	// Entries are row-major sorted, so a single linear fill preserves
	// ascending column order within each row.
	fill := make([]uint32, c.NRows)
	copy(fill, m.RowPtr[:c.NRows])
	for _, t := range c.Entries {
		k := fill[t.Row]
		m.ColIdx[k] = t.Col
		m.Val[k] = t.Val
		fill[t.Row]++
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *CSR[E]) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row r.
func (m *CSR[E]) Row(r uint32) ([]uint32, []E) {
	s, e := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[s:e], m.Val[s:e]
}

// Degree returns the number of nonzeros in row r.
func (m *CSR[E]) Degree(r uint32) uint32 { return m.RowPtr[r+1] - m.RowPtr[r] }

// Iterate calls fn(row, col, val) in row-major order.
func (m *CSR[E]) Iterate(fn func(row, col uint32, val E)) {
	for r := uint32(0); r < m.NRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			fn(r, m.ColIdx[k], m.Val[k])
		}
	}
}

// ToCOO converts back to triples in row-major order.
func (m *CSR[E]) ToCOO() *COO[E] {
	out := NewCOO[E](m.NRows, m.NCols)
	out.Entries = make([]Triple[E], 0, m.NNZ())
	m.Iterate(func(r, c uint32, v E) {
		out.Entries = append(out.Entries, Triple[E]{Row: r, Col: c, Val: v})
	})
	return out
}
