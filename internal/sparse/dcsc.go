package sparse

import (
	"math/bits"
	"slices"
	"sync"
)

// DCSC is the Doubly Compressed Sparse Column format of Buluç & Gilbert,
// the matrix representation GraphMat uses (paper §4.4.1). Unlike CSC, the
// column-pointer array holds entries only for columns that actually contain
// nonzeros, which keeps hypersparse partitions compact: a 1-D row partition
// of a scale-free graph touches only a fraction of all columns.
//
// Arrays (names follow the paper's description and [9]):
//
//	JC  — ids of columns with at least one nonzero, ascending
//	CP  — CP[i]..CP[i+1] is the range in IR/Val for column JC[i]
//	IR  — row indices of nonzeros, ascending within each column
//	Val — the nonzero values, parallel to IR
//
// Like the paper ("which we have not used"), this DCSC carries no AUX array
// of [9]. The pull kernel iterates JC directly; the push (SpMSpV) kernel,
// which looks individual frontier columns up in every partition, reads the
// ColumnIndex instead: a bitmap of JC over its word span plus a rank per
// word, so a lookup is a bit test and a popcount with no dependent load
// before CP — and it ANDs whole frontier words with the bitmap. The pull
// kernel reads the bitmap too, once per call, to test whether every stored
// column holds a message before it folds the whole structure in one pass.
type DCSC[E any] struct {
	NRows, NCols uint32
	JC           []uint32
	CP           []uint32
	IR           []uint32
	Val          []E

	// RowLo, RowHi record the output (row) range this structure covers when
	// it is one partition of a 1-D row decomposition; for a whole matrix they
	// are 0, NRows.
	RowLo, RowHi uint32

	// flat memoizes the pull walk's flat-fold view, EdgeCols and RowMask,
	// built in one pass: the per-edge source-column array it reads — as one
	// stream over every edge when the whole structure is live, a batch's
	// slice of it otherwise: 4 B per stored edge — and the bitmap of the rows
	// IR holds, one bit per row of the range. Built on the first fully-live
	// structure or column batch a walk meets here and never before, so a
	// structure only ever traversed by sparse frontiers does not pay for it.
	// It is derived state — never serialised.
	flat struct {
		once sync.Once
		cols []uint32
		rows []uint64
	}

	// rowIndex memoizes RowIndex, the row-major view the row walk scans —
	// a base's, and a delta's beside it (Layered): built by the first
	// row-walk task that reaches this structure and never before, so a
	// structure no settled-mask program ever pulls through does not pay for
	// it, and a delta pays O(its own entries) once, not per epoch. Derived
	// state, like edgeCols — never serialised.
	rowIndex struct {
		once sync.Once
		idx  *RowIndex
	}

	// colIndex memoizes ColumnIndex, the only way a column is found by id
	// and the bitmap the pull walk tests a frontier's liveness against:
	// built from JC by the first reader — a lookup or a pull call that may
	// fold the whole structure flat — never before and never serialised, so a view over a
	// mapped file stays O(1) to assemble and a hand-assembled literal
	// indexes itself like any other.
	colIndex struct {
		once sync.Once
		idx  ColumnIndex
	}

	// live memoizes, on a delta, what its overrides change about its base's
	// live counts (Layered.LiveNNZ, LiveNZColumns): recorded by MergeDelta
	// from the previous delta's in O(touched columns), counted by the first
	// reader of a delta built any other way. Derived state — never
	// serialised.
	live struct {
		once   sync.Once
		change liveChange
	}
}

// ColumnIndex locates stored columns by id. Bit j&63 of Bits[j>>6-Lo] is set
// exactly when column j is in JC; Rank[w] is the JC position of the first
// column of word Lo+w, the popcount of every word below it. A stored column
// j therefore sits at JC position Rank[w] + popcount(Bits[w] & (bit-1)). The
// span covers the words from the lowest stored id to the highest, so the
// index costs 12 B per 64 ids of span and nothing for an empty structure.
type ColumnIndex struct {
	Lo   int
	Bits []uint64
	Rank []uint32
}

// newColumnIndex indexes the ids of jc below ncols. It builds without
// panicking on any jc, since a mapped file's JC is shape-checked only: an
// id at or past ncols is no column of the matrix and is left out, so it
// cannot size the index, and every rank counts set bits, so on a JC that is
// not strictly ascending a lookup answers wrongly but always with a
// position inside JC.
func newColumnIndex(jc []uint32, ncols uint32) ColumnIndex {
	lo, hi := ncols, uint32(0)
	for _, j := range jc {
		if j < ncols {
			lo, hi = min(lo, j), max(hi, j)
		}
	}
	if lo > hi {
		return ColumnIndex{}
	}
	x := ColumnIndex{Lo: int(lo >> 6)}
	x.Bits = make([]uint64, int(hi>>6)-x.Lo+1)
	x.Rank = make([]uint32, len(x.Bits))
	for _, j := range jc {
		if j < ncols {
			x.Bits[int(j>>6)-x.Lo] |= 1 << (j & 63)
		}
	}
	r := uint32(0)
	for w, b := range x.Bits {
		x.Rank[w] = r
		r += uint32(bits.OnesCount64(b))
	}
	return x
}

// Has reports whether column j is stored: one bit test, no rank.
func (x *ColumnIndex) Has(j uint32) bool {
	w := int(j>>6) - x.Lo
	return uint(w) < uint(len(x.Bits)) && x.Bits[w]&(1<<(j&63)) != 0
}

// ColumnIndex returns m's column index, built on first use (O(len(JC) + span
// words)) and memoized; it must be treated as read-only. Safe for concurrent
// use: racing first callers build it once.
func (m *DCSC[E]) ColumnIndex() *ColumnIndex {
	m.colIndex.once.Do(func() { m.colIndex.idx = newColumnIndex(m.JC, m.NCols) })
	return &m.colIndex.idx
}

// RowIndex is the row-major (CSR) view of one DCSC's structure: the same
// stored entries grouped by destination row instead of by source column. Row
// r of the structure's range holds positions Ptr[r-RowLo]..Ptr[r-RowLo+1] of
// Src — its entries' source column ids, ascending. That is exactly the order
// in which the column walks deliver a row's entries, so a scan of a row
// visits the same sequence. It holds no edge values: the row walk only asks
// which sources reach a row. It costs 4 B per stored entry and 4 B per row.
// A delta's RowIndex holds its override columns' entries only (a tombstone
// has none); the row walk merges it with the base's (see Layered).
type RowIndex struct {
	RowLo uint32
	Ptr   []uint32
	Src   []uint32
}

// RowIndex returns the row-major view of m. It is built on first use (one
// counting sort, O(nnz + rows)), memoized, and must be treated as read-only.
// Safe for concurrent use: racing first callers build it once.
func (m *DCSC[E]) RowIndex() *RowIndex {
	m.rowIndex.once.Do(func() {
		ptr := make([]uint32, m.RowHi-m.RowLo+1)
		for _, r := range m.IR {
			ptr[r-m.RowLo+1]++
		}
		for i := 1; i < len(ptr); i++ {
			ptr[i] += ptr[i-1]
		}
		src := make([]uint32, len(m.IR))
		// Columns ascend, so filling each row left to right leaves its
		// sources ascending. next[r] is row r's fill position.
		next := slices.Clone(ptr[:len(ptr)-1])
		for ci, j := range m.JC {
			for _, r := range m.IR[m.CP[ci]:m.CP[ci+1]] {
				at := &next[r-m.RowLo]
				src[*at] = j
				*at++
			}
		}
		m.rowIndex.idx = &RowIndex{RowLo: m.RowLo, Ptr: ptr, Src: src}
	})
	return m.rowIndex.idx
}

// EdgeCols returns the COO expansion of JC/CP: EdgeCols()[k] is the column
// id of the edge stored at IR[k]/Val[k]. The array is built on first use
// (O(nnz)), together with RowMask, memoized, and must be treated as
// read-only. Safe for concurrent use: racing first callers build it once.
func (m *DCSC[E]) EdgeCols() []uint32 {
	m.flat.once.Do(m.buildFlat)
	return m.flat.cols
}

// RowMask returns the rows the stored edges land on: bit i&63 of word i>>6
// is set exactly when row RowLo+i appears in IR, so word i lines up with
// mask word RowLo/64+i of a vector over all rows. It is nil when some IR
// entry lies outside [RowLo, RowHi) or RowLo is not 64-aligned — a view is
// shape-checked only (NewDCSCView), so it may hold either — and for a
// structure whose range is empty or inverted. Built with EdgeCols, memoized
// and read-only like it.
func (m *DCSC[E]) RowMask() []uint64 {
	m.flat.once.Do(m.buildFlat)
	return m.flat.rows
}

// buildFlat fills the flat-fold view: EdgeCols and RowMask, one pass each
// over CP and IR.
func (m *DCSC[E]) buildFlat() {
	cols := make([]uint32, len(m.IR))
	for ci, j := range m.JC {
		seg := cols[m.CP[ci]:m.CP[ci+1]]
		for k := range seg {
			seg[k] = j
		}
	}
	m.flat.cols = cols
	if m.RowLo&63 != 0 || m.RowLo >= m.RowHi {
		return
	}
	span := m.RowHi - m.RowLo
	rows := make([]uint64, (span+63)/64)
	for _, r := range m.IR {
		i := r - m.RowLo // wraps past span for a row below RowLo
		if i >= span {
			return
		}
		rows[i>>6] |= 1 << (i & 63)
	}
	m.flat.rows = rows
}

// NNZ returns the number of stored nonzeros.
func (m *DCSC[E]) NNZ() int { return len(m.IR) }

// NZColumns returns the number of columns that contain at least one nonzero.
func (m *DCSC[E]) NZColumns() int { return len(m.JC) }

// BuildDCSC constructs a DCSC from col-major sorted entries restricted to
// rows in [rowLo, rowHi). The input COO must be sorted with SortColMajor and
// deduplicated; duplicates are not combined here.
func BuildDCSC[E any](c *COO[E], rowLo, rowHi uint32) *DCSC[E] {
	m := &DCSC[E]{NRows: c.NRows, NCols: c.NCols, RowLo: rowLo, RowHi: rowHi}
	// First pass: count the entries in range to size the arrays exactly.
	nnz := 0
	for _, t := range c.Entries {
		if t.Row >= rowLo && t.Row < rowHi {
			nnz++
		}
	}
	if nnz == 0 {
		m.CP = []uint32{0}
		return m
	}
	m.IR = make([]uint32, 0, nnz)
	m.Val = make([]E, 0, nnz)
	prevCol := uint32(0)
	started := false
	for _, t := range c.Entries {
		if t.Row < rowLo || t.Row >= rowHi {
			continue
		}
		if !started || t.Col != prevCol {
			m.JC = append(m.JC, t.Col)
			m.CP = append(m.CP, uint32(len(m.IR)))
			prevCol = t.Col
			started = true
		}
		m.IR = append(m.IR, t.Row)
		m.Val = append(m.Val, t.Val)
	}
	m.CP = append(m.CP, uint32(len(m.IR)))
	return m
}

// FindColumn returns the position of col in JC, or ok=false if the column is
// not stored: a bit test and a rank in the column index.
func (m *DCSC[E]) FindColumn(col uint32) (int, bool) {
	x := m.ColumnIndex()
	w := int(col>>6) - x.Lo
	if uint(w) >= uint(len(x.Bits)) {
		return 0, false
	}
	b, bit := x.Bits[w], uint64(1)<<(col&63)
	if b&bit == 0 {
		return 0, false
	}
	return int(x.Rank[w]) + bits.OnesCount64(b&(bit-1)), true
}

// Iterate calls fn(row, col, val) for every nonzero in column-major order.
func (m *DCSC[E]) Iterate(fn func(row, col uint32, val E)) {
	for ci, col := range m.JC {
		for k := m.CP[ci]; k < m.CP[ci+1]; k++ {
			fn(m.IR[k], col, m.Val[k])
		}
	}
}

// ToCOO converts back to triples (col-major sorted by construction).
func (m *DCSC[E]) ToCOO() *COO[E] {
	out := NewCOO[E](m.NRows, m.NCols)
	out.Entries = make([]Triple[E], 0, m.NNZ())
	m.Iterate(func(r, c uint32, v E) {
		out.Entries = append(out.Entries, Triple[E]{Row: r, Col: c, Val: v})
	})
	return out
}

// PartitionRows splits [0, nrows) into nparts contiguous ranges balanced by
// the per-row weight (typically the nonzero count of each row, so SpMV work
// is balanced across partitions — the paper's load-balancing lever, §4.5).
// It returns nparts+1 boundaries; partition i covers [b[i], b[i+1]).
//
// Interior boundaries are aligned up to multiples of 64 so that partitions
// never share a bitvector word: the GraphMat engine writes each partition's
// output-mask range from a single goroutine without atomics.
func PartitionRows(rowWeights []uint32, nparts int) []uint32 {
	n := len(rowWeights)
	if nparts < 1 {
		nparts = 1
	}
	bounds := make([]uint32, nparts+1)
	var total uint64
	for _, w := range rowWeights {
		total += uint64(w) + 1 // +1: a row costs at least its output slot
	}
	target := total / uint64(nparts)
	if target == 0 {
		target = 1
	}
	p := 1
	var acc uint64
	for r := 0; r < n && p < nparts; r++ {
		acc += uint64(rowWeights[r]) + 1
		if acc >= uint64(p)*target {
			bounds[p] = uint32(r + 1)
			p++
		}
	}
	for ; p < nparts; p++ {
		bounds[p] = uint32(n)
	}
	bounds[nparts] = uint32(n)
	for i := 1; i < nparts; i++ {
		bounds[i] = (bounds[i] + 63) &^ 63
		if bounds[i] > uint32(n) {
			bounds[i] = uint32(n)
		}
	}
	// Boundaries must be nondecreasing; guard against degenerate weight
	// distributions and alignment overshoot.
	for i := 1; i <= nparts; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	return bounds
}
