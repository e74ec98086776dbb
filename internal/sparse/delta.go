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
// delete (Del true) of entry (Row, Col). MergeDelta sets Existed to whether
// the entry was live before the mutation, so a caller learns an upsert's or
// a delete's effect on the edge count without a lookup of its own.
type Mut[E any] struct {
	Row, Col uint32
	Val      E
	Del      bool
	Existed  bool
}

// Layered is one row partition of a versioned matrix: the immutable base
// DCSC plus an optional delta DCSC of whole-column overrides. A nil Delta
// means the partition has no pending mutations: the plain partition is the
// degenerate case of the same kernel walks, not a separate path.
//
// Read by rows, a partition's live row r is the base's row r minus every
// entry whose column the delta stores (its ColumnIndex, tombstones
// included), merged in ascending column with the delta's row r. So the two
// layers' memoized RowIndex views and the delta's column index are all a row
// reader needs: no merged row view is built, per epoch or ever.
type Layered[E any] struct {
	Base  *DCSC[E]
	Delta *DCSC[E]
}

// LiveNNZ returns the partition's live nonzero count under the overlay.
func (l Layered[E]) LiveNNZ() int {
	if l.Delta == nil {
		return l.Base.NNZ()
	}
	return l.Base.NNZ() + l.Delta.liveChange(l.Base).nnz
}

// LiveNZColumns returns the number of columns with at least one live nonzero.
func (l Layered[E]) LiveNZColumns() int {
	if l.Delta == nil {
		return l.Base.NZColumns()
	}
	return l.Base.NZColumns() + l.Delta.liveChange(l.Base).cols
}

// liveChange is what a delta's overrides change about its base's live
// counts: the entries, and the columns holding at least one entry.
type liveChange struct{ nnz, cols int }

// replace accounts for a column whose live entry count goes from before to
// after.
func (c *liveChange) replace(before, after int) {
	c.nnz += after - before
	if before > 0 {
		c.cols--
	}
	if after > 0 {
		c.cols++
	}
}

// liveChange returns what delta d's overrides change about base's live
// counts, memoized on d: every override replaces the base column it masks
// (a base stores no empty column).
func (d *DCSC[E]) liveChange(base *DCSC[E]) liveChange {
	d.live.once.Do(func() {
		for ci, j := range d.JC {
			before := 0
			if bi, ok := base.FindColumn(j); ok {
				before = int(base.CP[bi+1] - base.CP[bi])
			}
			d.live.change.replace(before, int(d.CP[ci+1]-d.CP[ci]))
		}
	})
	return d.live.change
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

// Assemble builds a DCSC directly from pre-constructed arrays. Unlike
// BuildDCSC it permits empty columns (CP[i] == CP[i+1]), which delta overlays
// use as column tombstones; the column index stores them like any column.
func Assemble[E any](nrows, ncols, rowLo, rowHi uint32, jc, cp, ir []uint32, val []E) *DCSC[E] {
	return &DCSC[E]{NRows: nrows, NCols: ncols, RowLo: rowLo, RowHi: rowHi, JC: jc, CP: cp, IR: ir, Val: val}
}

// MergeDelta builds the partition's next delta from the previous one and a
// batch of mutations. muts must be column-major sorted with at most one
// mutation per (row, col) key — the last write of a batch, pre-deduplicated
// by the caller — and restricted to the partition's row range. For every
// touched column the new delta stores the full live column (prior content
// merged with the mutations, where the prior content is the old override if
// one exists, the base column otherwise); untouched old overrides carry over
// unchanged. Each mutation's Existed is set to whether its entry was in that
// prior content, and the new delta records its live-count change against
// the base from the old one's, so LiveNNZ and LiveNZColumns cost O(1) on it.
// Returns old (possibly nil) when muts is empty, and nil when the merge
// leaves no overrides.
//
// A first walk finds each touched column's prior content once (one column
// lookup in the base) and sizes the output exactly; a second fills it:
// maximal runs of untouched overrides are copied in bulk, touched columns
// merge straight into place.
func MergeDelta[E any](base, old *DCSC[E], muts []Mut[E]) *DCSC[E] {
	if len(muts) == 0 {
		return old
	}
	if old == nil {
		old = &DCSC[E]{}
	}
	touched := touchedColumns(base, old, muts)
	ncols, nnz := len(old.JC), len(old.IR)
	change := old.liveChange(base)
	for _, t := range touched {
		change.replace(len(t.rows), t.n)
		if t.overridden {
			ncols--
			nnz -= len(t.rows)
		}
		if t.n > 0 || t.inBase {
			ncols++
			nnz += t.n
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
		at := len(cp)
		cp = cp[:at+hi-lo]
		for i, c := range old.CP[lo:hi] {
			cp[at+i] = c + shift
		}
		ir = append(ir, old.IR[s:e]...)
		val = append(val, old.Val[s:e]...)
	}
	carried := 0 // old override columns below this index are placed or replaced
	for _, t := range touched {
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
	d := Assemble(base.NRows, base.NCols, base.RowLo, base.RowHi, jc, cp, ir, val)
	d.live.once.Do(func() { d.live.change = change })
	return d
}

// touchedColumn is one column a mutation batch touches: its mutation group
// and the column's prior content — the old override when one exists
// (overridden; it is old.JC[oi]), the base column otherwise (inBase: the
// base stores the column at all). oi counts the old override columns below
// this one; n is the column's live entry count after the mutations.
type touchedColumn[E any] struct {
	muts               []Mut[E]
	oi, n              int
	rows               []uint32
	vals               []E
	overridden, inBase bool
}

// touchedColumns describes, in column order, every column muts touches, and
// sets each mutation's Existed against its column's prior content.
func touchedColumns[E any](base, old *DCSC[E], muts []Mut[E]) []touchedColumn[E] {
	ncols := 0
	for i := range muts {
		if i == 0 || muts[i].Col != muts[i-1].Col {
			ncols++
		}
	}
	out := make([]touchedColumn[E], 0, ncols)
	oi := 0
	for len(muts) > 0 {
		j := muts[0].Col
		me := 1
		for me < len(muts) && muts[me].Col == j {
			me++
		}
		k, _ := slices.BinarySearch(old.JC[oi:], j)
		oi += k
		t := touchedColumn[E]{muts: muts[:me], oi: oi}
		bi, inBase := base.FindColumn(j)
		t.inBase = inBase
		if t.overridden = oi < len(old.JC) && old.JC[oi] == j; t.overridden {
			s, e := old.CP[oi], old.CP[oi+1]
			t.rows, t.vals = old.IR[s:e], old.Val[s:e]
		} else if inBase {
			s, e := base.CP[bi], base.CP[bi+1]
			t.rows, t.vals = base.IR[s:e], base.Val[s:e]
		}
		t.n = len(t.rows)
		rows := t.rows
		for mi := range t.muts {
			m := &t.muts[mi]
			i, hit := slices.BinarySearch(rows, m.Row)
			rows = rows[i:]
			m.Existed = hit
			if hit && m.Del {
				t.n--
			} else if !hit && !m.Del {
				t.n++
			}
		}
		out = append(out, t)
		muts = muts[me:]
	}
	return out
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
