package sparse

import "slices"

// This file is the overlay half of the versioned storage layer: a DCSC
// partition plus an optional delta DCSC of whole-column overrides, built from
// batched edge mutations. The delta granularity is the column, not the entry:
// a column present in the delta carries the *entire live content* of that
// column (base entries merged with inserts, minus deletes), so a kernel that
// reaches a column reads it from exactly one layer and folds its rows in the
// same ascending order a from-scratch build would — which is what keeps
// results on an overlay bit-identical to a fresh build of the same edge set.
// A column stored in the delta with zero entries is a tombstone: it masks a
// base column whose every edge was deleted.

// Mut is one edge mutation against a matrix: an upsert (Del false) or a
// delete (Del true) of entry (Row, Col).
type Mut[E any] struct {
	Row, Col uint32
	Val      E
	Del      bool
}

// Layered is one row partition of a versioned matrix: the immutable base
// DCSC plus an optional delta DCSC of whole-column overrides. A nil Delta
// means the partition has no pending mutations: the plain partition is the
// degenerate case of the same kernel walks, not a separate path.
type Layered[E any] struct {
	Base  *DCSC[E]
	Delta *DCSC[E]
}

// LiveNNZ returns the partition's live nonzero count under the overlay.
func (l Layered[E]) LiveNNZ() int {
	if l.Delta == nil {
		return l.Base.NNZ()
	}
	nnz := l.Base.NNZ() + l.Delta.NNZ()
	for _, j := range l.Delta.JC {
		if bi, ok := l.Base.FindColumn(j); ok {
			nnz -= int(l.Base.CP[bi+1] - l.Base.CP[bi])
		}
	}
	return nnz
}

// LiveNZColumns returns the number of columns with at least one live nonzero.
func (l Layered[E]) LiveNZColumns() int {
	if l.Delta == nil {
		return l.Base.NZColumns()
	}
	cols := l.Base.NZColumns()
	for ci, j := range l.Delta.JC {
		nonEmpty := l.Delta.CP[ci+1] > l.Delta.CP[ci]
		_, inBase := l.Base.FindColumn(j)
		switch {
		case inBase && !nonEmpty:
			cols--
		case !inBase && nonEmpty:
			cols++
		}
	}
	return cols
}

// Column returns the live rows and values of column col: the delta override
// when one exists (it is authoritative, possibly empty), the base column
// otherwise.
func (l Layered[E]) Column(col uint32) ([]uint32, []E) {
	if l.Delta != nil {
		if ci, ok := l.Delta.FindColumn(col); ok {
			s, e := l.Delta.CP[ci], l.Delta.CP[ci+1]
			return l.Delta.IR[s:e], l.Delta.Val[s:e]
		}
	}
	return l.Base.Column(col)
}

// Columns calls fn(col, rows, vals) for every stored column of the live
// partition in ascending column order: the delta override where one exists
// (a tombstone arrives with no rows), the base column otherwise. Rows ascend
// within a column, so entry by entry this is the visit order a fresh DCSC
// build of the live edge set would produce. The slices alias the partition.
func (l Layered[E]) Columns(fn func(col uint32, rows []uint32, vals []E)) {
	b, d := l.Base, l.Delta
	if d == nil {
		d = &DCSC[E]{}
	}
	bi, di := 0, 0
	for bi < len(b.JC) || di < len(d.JC) {
		if di >= len(d.JC) || (bi < len(b.JC) && b.JC[bi] < d.JC[di]) {
			s, e := b.CP[bi], b.CP[bi+1]
			fn(b.JC[bi], b.IR[s:e], b.Val[s:e])
			bi++
			continue
		}
		col := d.JC[di]
		if bi < len(b.JC) && b.JC[bi] == col {
			bi++ // base column overridden
		}
		s, e := d.CP[di], d.CP[di+1]
		fn(col, d.IR[s:e], d.Val[s:e])
		di++
	}
}

// Iterate calls fn(row, col, val) for every live nonzero in column-major
// order (see Columns).
func (l Layered[E]) Iterate(fn func(row, col uint32, val E)) {
	l.Columns(func(col uint32, rows []uint32, vals []E) {
		for i, r := range rows {
			fn(r, col, vals[i])
		}
	})
}

// Assemble builds a DCSC directly from pre-constructed arrays and indexes it
// with AUX. Unlike BuildDCSC it permits empty columns (CP[i] == CP[i+1]),
// which delta overlays use as column tombstones.
func Assemble[E any](nrows, ncols, rowLo, rowHi uint32, jc, cp, ir []uint32, val []E) *DCSC[E] {
	m := &DCSC[E]{NRows: nrows, NCols: ncols, RowLo: rowLo, RowHi: rowHi, JC: jc, CP: cp, IR: ir, Val: val}
	m.buildAux()
	return m
}

// MergeDelta builds the partition's next delta from the previous one and a
// batch of mutations. muts must be column-major sorted with at most one
// mutation per (row, col) key — the last write of a batch, pre-deduplicated
// by the caller — and restricted to the partition's row range. For every
// touched column the new delta stores the full live column (prior content
// merged with the mutations, where the prior content is the old override if
// one exists, the base column otherwise); untouched old overrides carry over
// unchanged. Returns old (possibly nil) when muts is empty, and nil when the
// merge leaves no overrides.
//
// The output arrays are sized exactly by a first walk over the touched
// columns (a binary search per mutation) and filled by a second: maximal runs
// of untouched overrides are copied in bulk, touched columns merge straight
// into place.
func MergeDelta[E any](base, old *DCSC[E], muts []Mut[E]) *DCSC[E] {
	if len(muts) == 0 {
		return old
	}
	if old == nil {
		old = &DCSC[E]{}
	}
	ncols, nnz := len(old.JC), len(old.IR)
	for t := nextTouched(base, old, muts, 0); t.muts != nil; t = nextTouched(base, old, t.rest, t.oi) {
		if t.overridden {
			ncols--
			nnz -= len(t.rows)
		}
		n, rows := len(t.rows), t.rows
		for _, m := range t.muts {
			i, hit := slices.BinarySearch(rows, m.Row)
			rows = rows[i:]
			if hit && m.Del {
				n--
			} else if !hit && !m.Del {
				n++
			}
		}
		if n > 0 || t.inBase {
			ncols++
			nnz += n
		}
	}
	if ncols == 0 {
		return nil
	}
	jc := make([]uint32, 0, ncols)
	cp := make([]uint32, 0, ncols+1)
	ir := make([]uint32, 0, nnz)
	val := make([]E, 0, nnz)
	// carry copies the old override columns [lo, hi) — a maximal untouched
	// run — in bulk, rebasing their column pointers.
	carry := func(lo, hi int) {
		if lo == hi {
			return
		}
		s, e := old.CP[lo], old.CP[hi]
		shift := uint32(len(ir)) - s
		jc = append(jc, old.JC[lo:hi]...)
		for _, c := range old.CP[lo:hi] {
			cp = append(cp, c+shift)
		}
		ir = append(ir, old.IR[s:e]...)
		val = append(val, old.Val[s:e]...)
	}
	carried := 0 // old override columns below this index are placed or replaced
	for t := nextTouched(base, old, muts, 0); t.muts != nil; t = nextTouched(base, old, t.rest, t.oi) {
		carry(carried, t.oi)
		carried = t.oi
		if t.overridden {
			carried++
		}
		start, rows, vals := len(ir), t.rows, t.vals
		for _, m := range t.muts {
			i, hit := slices.BinarySearch(rows, m.Row)
			ir = append(ir, rows[:i]...)
			val = append(val, vals[:i]...)
			if hit {
				i++
			}
			rows, vals = rows[i:], vals[i:]
			if !m.Del {
				ir = append(ir, m.Row)
				val = append(val, m.Val)
			}
		}
		ir = append(ir, rows...)
		val = append(val, vals...)
		// An emptied column stays, as a tombstone, only if it masks something.
		if len(ir) > start || t.inBase {
			jc = append(jc, t.muts[0].Col)
			cp = append(cp, uint32(start))
		}
	}
	carry(carried, len(old.JC))
	cp = append(cp, uint32(len(ir)))
	return Assemble(base.NRows, base.NCols, base.RowLo, base.RowHi, jc, cp, ir, val)
}

// touchedColumn is one column a mutation batch touches: its mutation group,
// the mutations after it, and the column's prior content — the old override
// when one exists (overridden; it is old.JC[oi]), the base column otherwise
// (inBase: the base stores the column at all). oi counts the old override
// columns below this one.
type touchedColumn[E any] struct {
	muts, rest         []Mut[E]
	oi                 int
	rows               []uint32
	vals               []E
	overridden, inBase bool
}

// nextTouched describes the first column muts touches, scanning old's
// override columns from index oi on. Its muts field is nil once muts is
// exhausted.
func nextTouched[E any](base, old *DCSC[E], muts []Mut[E], oi int) touchedColumn[E] {
	if len(muts) == 0 {
		return touchedColumn[E]{}
	}
	j := muts[0].Col
	me := 1
	for me < len(muts) && muts[me].Col == j {
		me++
	}
	for oi < len(old.JC) && old.JC[oi] < j {
		oi++
	}
	t := touchedColumn[E]{muts: muts[:me], rest: muts[me:], oi: oi}
	_, t.inBase = base.FindColumn(j)
	if t.overridden = oi < len(old.JC) && old.JC[oi] == j; t.overridden {
		s, e := old.CP[oi], old.CP[oi+1]
		t.rows, t.vals = old.IR[s:e], old.Val[s:e]
	} else if t.inBase {
		t.rows, t.vals = base.Column(j)
	}
	return t
}

// OverheadNNZ is the overlay's storage cost in entries: stored nonzeros plus
// one per override column (the JC/CP slot). Compaction policies compare it
// against the base structure's size.
func OverheadNNZ[E any](deltas []*DCSC[E]) int64 {
	var n int64
	for _, d := range deltas {
		if d != nil {
			n += int64(d.NNZ() + d.NZColumns())
		}
	}
	return n
}
