// Package sparse implements the sparse-matrix substrate GraphMat is built on:
// COO edge triples, the Doubly Compressed Sparse Column (DCSC) format of
// Buluç & Gilbert used by the paper (§4.4.1), CSR for the native baselines,
// and the two sparse-vector representations discussed in §4.4.2 (a bitvector
// plus dense value array, and a sorted (index,value) tuple array).
//
// All structures are generic over the stored value type so that unweighted
// graphs pay nothing for edge payloads they do not have.
package sparse

import (
	"fmt"
	"slices"
)

// Triple is a single (row, col, value) matrix entry. For a graph adjacency
// matrix A, the entry A[dst][src] of the transpose drives message flow from
// src to dst; package graph decides the orientation.
type Triple[E any] struct {
	Row, Col uint32
	Val      E
}

// COO is an unordered collection of matrix entries with explicit dimensions.
// It is the interchange format: generators and file loaders produce COO, and
// DCSC/CSR are built from it.
type COO[E any] struct {
	NRows, NCols uint32
	Entries      []Triple[E]
}

// NewCOO returns an empty COO with the given dimensions.
func NewCOO[E any](nrows, ncols uint32) *COO[E] {
	return &COO[E]{NRows: nrows, NCols: ncols}
}

// Add appends an entry. It does not validate bounds; call Validate before
// building compressed structures from untrusted input.
func (c *COO[E]) Add(row, col uint32, val E) {
	c.Entries = append(c.Entries, Triple[E]{Row: row, Col: col, Val: val})
}

// Validate checks that every entry is within the matrix dimensions.
func (c *COO[E]) Validate() error {
	for i, t := range c.Entries {
		if t.Row >= c.NRows || t.Col >= c.NCols {
			return fmt.Errorf("sparse: entry %d (%d,%d) outside %dx%d matrix",
				i, t.Row, t.Col, c.NRows, c.NCols)
		}
	}
	return nil
}

// SortColMajor stably sorts entries by (col, row) with sortTriples on one
// worker. DCSC construction requires this order.
func (c *COO[E]) SortColMajor() {
	sortTriples(c, true, 1)
}

// SortRowMajor stably sorts entries by (row, col) with sortTriples on one
// worker. CSR construction requires this order.
func (c *COO[E]) SortRowMajor() {
	sortTriples(c, false, 1)
}

// DedupSum collapses duplicate (row,col) entries in place, combining values
// with the supplied function. The receiver must already be sorted (either
// order). The relative order of surviving entries is preserved.
func (c *COO[E]) DedupSum(combine func(a, b E) E) {
	if len(c.Entries) == 0 {
		return
	}
	out := 0
	for i := 1; i < len(c.Entries); i++ {
		cur := c.Entries[i]
		if cur.Row == c.Entries[out].Row && cur.Col == c.Entries[out].Col {
			c.Entries[out].Val = combine(c.Entries[out].Val, cur.Val)
		} else {
			out++
			c.Entries[out] = cur
		}
	}
	c.Entries = c.Entries[:out+1]
}

// DedupKeepFirst collapses duplicate (row,col) entries keeping the first
// occurrence. The receiver must already be sorted.
func (c *COO[E]) DedupKeepFirst() {
	c.DedupSum(func(a, _ E) E { return a })
}

// RemoveSelfLoops drops entries on the diagonal (paper §5.1: "We first remove
// self-loops in the graphs").
func (c *COO[E]) RemoveSelfLoops() {
	out := c.Entries[:0]
	for _, t := range c.Entries {
		if t.Row != t.Col {
			out = append(out, t)
		}
	}
	c.Entries = out
}

// Transpose swaps rows and columns in place.
func (c *COO[E]) Transpose() {
	c.NRows, c.NCols = c.NCols, c.NRows
	for i := range c.Entries {
		c.Entries[i].Row, c.Entries[i].Col = c.Entries[i].Col, c.Entries[i].Row
	}
}

// Clone returns a deep copy.
func (c *COO[E]) Clone() *COO[E] {
	out := &COO[E]{NRows: c.NRows, NCols: c.NCols, Entries: make([]Triple[E], len(c.Entries))}
	copy(out.Entries, c.Entries)
	return out
}

// Symmetrize appends the reverse of every off-diagonal edge and removes the
// duplicates this may create (paper §5.1 BFS preparation: "we replicate edges
// ... to obtain a symmetric graph"). The result is row-major sorted. The
// reversals go after every original and the sort is stable, so of the
// entries sharing a key, the first original in input order survives, else
// the first reversal: an input need not be deduplicated first.
func (c *COO[E]) Symmetrize() {
	n := len(c.Entries)
	c.Entries = slices.Grow(c.Entries, n)
	for i := 0; i < n; i++ {
		t := c.Entries[i]
		if t.Row != t.Col {
			c.Entries = append(c.Entries, Triple[E]{Row: t.Col, Col: t.Row, Val: t.Val})
		}
	}
	c.SortRowMajor()
	c.DedupKeepFirst()
}

// UpperTriangle keeps only entries with row < col, producing the directed
// acyclic orientation triangle counting expects (paper §5.1: "discard the
// edges in the lower triangle of the adjacency matrix").
func (c *COO[E]) UpperTriangle() {
	out := c.Entries[:0]
	for _, t := range c.Entries {
		if t.Row < t.Col {
			out = append(out, t)
		}
	}
	c.Entries = out
}

// RowCounts returns the number of entries in each row.
func (c *COO[E]) RowCounts() []uint32 {
	counts := make([]uint32, c.NRows)
	for _, t := range c.Entries {
		counts[t.Row]++
	}
	return counts
}

// ColCounts returns the number of entries in each column.
func (c *COO[E]) ColCounts() []uint32 {
	counts := make([]uint32, c.NCols)
	for _, t := range c.Entries {
		counts[t.Col]++
	}
	return counts
}
