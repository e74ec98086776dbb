package sparse

import (
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
// The optional auxiliary index over JC described in [9] (the AUX array) IS
// built here, unlike the paper ("which we have not used"): the pull kernel
// iterates JC directly and never needs it, but the push (SpMSpV) kernel looks
// individual frontier columns up in every partition, and AUX turns that probe
// from a binary search into an effectively O(1) bucket scan.
type DCSC[E any] struct {
	NRows, NCols uint32
	JC           []uint32
	CP           []uint32
	IR           []uint32
	Val          []E

	// Aux is the column-lookup accelerator: Aux[b] is the position in JC of
	// the first column c with c>>AuxShift >= b. A column col therefore lives,
	// if present, in JC[Aux[col>>AuxShift] : Aux[col>>AuxShift+1]] — a bucket
	// whose expected occupancy is below one entry, because AuxShift is chosen
	// so the bucket count tracks len(JC). Aux is nil only for matrices with
	// no nonzeros.
	Aux []uint32
	// AuxShift is the log2 bucket width of Aux.
	AuxShift uint32

	// RowLo, RowHi record the output (row) range this structure covers when
	// it is one partition of a 1-D row decomposition; for a whole matrix they
	// are 0, NRows.
	RowLo, RowHi uint32

	// split memoizes SplitBounds: the histogram sweep behind the boundary
	// computation costs O(nnz), and the engine re-plans tasks on every run
	// against the same pinned structure (drivers like PageRank invoke the
	// engine once per superstep).
	split struct {
		mu     sync.Mutex
		nparts int
		bounds []uint32
	}

	// edgeCols memoizes EdgeCols, the per-edge source-column array the pull
	// walk's flat fold reads: 4 B per stored edge, built on the first
	// fully-live column batch a walk meets in this structure and never
	// before, so a structure only ever traversed by sparse frontiers does
	// not pay for it. It is derived state — never serialised.
	edgeCols struct {
		once sync.Once
		cols []uint32
	}

	// rowIndex memoizes RowIndex, the row-major view the row walk scans:
	// built by the first row-walk task that reaches this structure and never
	// before, so a structure no settled-mask program ever pulls through does
	// not pay for it. Derived state, like edgeCols — never serialised.
	rowIndex struct {
		once sync.Once
		idx  *RowIndex[E]
	}
}

// RowIndex is the row-major (CSR) view of one DCSC: the same stored entries
// grouped by destination row instead of by source column. Row r of the
// structure's range holds Entries[Ptr[r-RowLo]:Ptr[r-RowLo+1]] — its entries
// in ascending source column id. That is exactly the order in which the
// column walks deliver a row's entries, so a fold over a row visits the same
// sequence. A scan of a row that stops early finds the value of the entry it
// stopped at on the cache line it just read, which is why source and value
// are interleaved. It costs 4 B plus one E per stored entry (8 B for float32
// weights) and 4 B per row.
type RowIndex[E any] struct {
	RowLo   uint32
	Ptr     []uint32
	Entries []RowEntry[E]
}

// RowEntry is one stored entry of a RowIndex row: its source column and value.
type RowEntry[E any] struct {
	Src uint32
	Val E
}

// RowIndex returns the row-major view of m. It is built on first use (one
// counting sort, O(nnz + rows)), memoized, and must be treated as read-only.
// Safe for concurrent use: racing first callers build it once.
func (m *DCSC[E]) RowIndex() *RowIndex[E] {
	m.rowIndex.once.Do(func() {
		ptr := make([]uint32, m.RowHi-m.RowLo+1)
		for _, r := range m.IR {
			ptr[r-m.RowLo+1]++
		}
		for i := 1; i < len(ptr); i++ {
			ptr[i] += ptr[i-1]
		}
		entries := make([]RowEntry[E], len(m.IR))
		// Columns ascend, so filling each row left to right leaves its
		// sources ascending. next[r] is row r's fill position.
		next := slices.Clone(ptr[:len(ptr)-1])
		for ci, j := range m.JC {
			for k := m.CP[ci]; k < m.CP[ci+1]; k++ {
				at := &next[m.IR[k]-m.RowLo]
				entries[*at] = RowEntry[E]{Src: j, Val: m.Val[k]}
				*at++
			}
		}
		m.rowIndex.idx = &RowIndex[E]{RowLo: m.RowLo, Ptr: ptr, Entries: entries}
	})
	return m.rowIndex.idx
}

// EdgeCols returns the COO expansion of JC/CP: EdgeCols()[k] is the column
// id of the edge stored at IR[k]/Val[k]. The array is built on first use
// (O(nnz)), memoized, and must be treated as read-only. Safe for concurrent
// use: racing first callers build it once.
func (m *DCSC[E]) EdgeCols() []uint32 {
	m.edgeCols.once.Do(func() {
		cols := make([]uint32, len(m.IR))
		for ci, j := range m.JC {
			seg := cols[m.CP[ci]:m.CP[ci+1]]
			for k := range seg {
				seg[k] = j
			}
		}
		m.edgeCols.cols = cols
	})
	return m.edgeCols.cols
}

// SplitBounds partitions this structure's destination rows [RowLo, RowHi)
// into nparts contiguous sub-ranges of roughly equal nonzero weight, with
// interior boundaries 64-aligned (the same cut PartitionRows applies at
// build time, here at sub-partition scale). It returns nparts+1 absolute
// row boundaries; the result is memoized per nparts and must be treated as
// read-only. Safe for concurrent use.
func (m *DCSC[E]) SplitBounds(nparts int) []uint32 {
	m.split.mu.Lock()
	defer m.split.mu.Unlock()
	if m.split.nparts == nparts {
		return m.split.bounds
	}
	counts := make([]uint32, m.RowHi-m.RowLo)
	for _, r := range m.IR {
		counts[r-m.RowLo]++
	}
	bounds := PartitionRows(counts, nparts)
	for i := range bounds {
		bounds[i] += m.RowLo
	}
	m.split.nparts, m.split.bounds = nparts, bounds
	return bounds
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
	m.buildAux()
	return m
}

// buildAux constructs the AUX bucket index over JC. The shift is the smallest
// one that keeps the bucket count within 2×len(JC), so the index costs at
// most as much memory as JC itself while keeping expected bucket occupancy
// under one column.
func (m *DCSC[E]) buildAux() {
	if len(m.JC) == 0 {
		m.Aux, m.AuxShift = nil, 0
		return
	}
	shift := uint32(0)
	for uint64(m.NCols)>>shift > uint64(2*len(m.JC)) {
		shift++
	}
	nb := int(uint64(m.NCols)>>shift) + 1
	aux := make([]uint32, nb+1)
	ci := 0
	for b := 1; b <= nb; b++ {
		for ci < len(m.JC) && m.JC[ci]>>shift < uint32(b) {
			ci++
		}
		aux[b] = uint32(ci)
	}
	m.Aux, m.AuxShift = aux, shift
}

// FindColumn returns the position of col in JC, or ok=false if the column is
// empty. With the AUX index the lookup scans one bucket (expected O(1));
// without it (a hand-assembled DCSC) it falls back to binary search.
func (m *DCSC[E]) FindColumn(col uint32) (int, bool) {
	if m.Aux != nil {
		b := col >> m.AuxShift
		if int(b)+1 >= len(m.Aux) {
			return 0, false
		}
		for ci, hi := int(m.Aux[b]), int(m.Aux[b+1]); ci < hi; ci++ {
			switch c := m.JC[ci]; {
			case c == col:
				return ci, true
			case c > col:
				return 0, false
			}
		}
		return 0, false
	}
	lo, hi := 0, len(m.JC)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.JC[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(m.JC) || m.JC[lo] != col {
		return 0, false
	}
	return lo, true
}

// Column returns the row indices and values of column col, or nils if the
// column is empty.
func (m *DCSC[E]) Column(col uint32) ([]uint32, []E) {
	ci, ok := m.FindColumn(col)
	if !ok {
		return nil, nil
	}
	s, e := m.CP[ci], m.CP[ci+1]
	return m.IR[s:e], m.Val[s:e]
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

// BuildPartitionedDCSC splits the matrix into row partitions balanced by
// nonzeros and builds one DCSC per partition, serially. The input must be
// col-major sorted and deduplicated. BuildPartitionedDCSCParallel produces
// the identical result on multiple goroutines.
func BuildPartitionedDCSC[E any](c *COO[E], nparts int) []*DCSC[E] {
	return BuildPartitionedDCSCParallel(c, nparts, 1)
}
