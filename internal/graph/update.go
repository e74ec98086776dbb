package graph

import (
	"fmt"
	"slices"

	"graphmat/internal/sparse"
)

// Update is one live edge mutation against a graph: an upsert (Del false —
// insert the edge src→dst, or replace its value if it already exists) or a
// delete (Del true). Batches of updates are the write unit of the versioned
// store; within a batch the last mutation of a (src, dst) key wins.
type Update[E any] struct {
	Src, Dst uint32
	Val      E
	Del      bool
}

// normalizeUpdates sorts a batch by (src, dst) and collapses repeated keys to
// the last mutation — the final state a sequential application would leave.
// The input is not modified.
func normalizeUpdates[E any](batch []Update[E]) []Update[E] {
	out := slices.Clone(batch)
	slices.SortStableFunc(out, func(a, b Update[E]) int {
		if a.Src != b.Src {
			if a.Src < b.Src {
				return -1
			}
			return 1
		}
		if a.Dst != b.Dst {
			if a.Dst < b.Dst {
				return -1
			}
			return 1
		}
		return 0
	})
	w := 0
	for i := range out {
		if w > 0 && out[w-1].Src == out[i].Src && out[w-1].Dst == out[i].Dst {
			out[w-1] = out[i]
		} else {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// fwdMuts maps normalized updates onto mutations of the forward structure
// (Gᵀ: Row = dst, Col = src). The (src, dst) sort order of the input is
// exactly the column-major order of the output, so no re-sort is needed.
func fwdMuts[E any](norm []Update[E]) []sparse.Mut[E] {
	muts := make([]sparse.Mut[E], len(norm))
	for i, u := range norm {
		muts[i] = sparse.Mut[E]{Row: u.Dst, Col: u.Src, Val: u.Val, Del: u.Del}
	}
	return muts
}

// bwdMuts maps normalized updates onto mutations of the backward structure
// (G: Row = src, Col = dst), re-sorted to its column-major order.
func bwdMuts[E any](norm []Update[E]) []sparse.Mut[E] {
	muts := make([]sparse.Mut[E], len(norm))
	for i, u := range norm {
		muts[i] = sparse.Mut[E]{Row: u.Src, Col: u.Dst, Val: u.Val, Del: u.Del}
	}
	slices.SortFunc(muts, func(a, b sparse.Mut[E]) int {
		if a.Col != b.Col {
			if a.Col < b.Col {
				return -1
			}
			return 1
		}
		if a.Row != b.Row {
			if a.Row < b.Row {
				return -1
			}
			return 1
		}
		return 0
	})
	return muts
}

// NormalizeAdjacency sorts adjacency triples row-major and collapses
// duplicate edges keeping the first occurrence — the same edge set every
// algorithm's preprocessing would keep, so normalizing a master copy before
// builds changes nothing downstream. workers ≤ 0 means GOMAXPROCS.
func NormalizeAdjacency[E any](adj *sparse.COO[E], workers int) {
	adj.SortRowMajorParallel(workers)
	adj.DedupKeepFirstParallel(workers)
}

// ApplyToAdjacency returns a new adjacency equal to adj with the batch
// applied: upserts replace or append edges, deletes remove them. adj must be
// normalized (row-major sorted, deduplicated); the result is too. adj itself
// is not modified — callers keep serving reads from it while the successor is
// assembled.
func ApplyToAdjacency[E any](adj *sparse.COO[E], batch []Update[E]) (*sparse.COO[E], error) {
	if err := checkUpdates(batch, adj.NRows, adj.NCols); err != nil {
		return nil, err
	}
	return mergeUpdates(adj, normalizeUpdates(batch)), nil
}

// checkUpdates rejects a batch that references a vertex outside an
// nrows×ncols adjacency.
func checkUpdates[E any](batch []Update[E], nrows, ncols uint32) error {
	for _, u := range batch {
		if u.Src >= nrows || u.Dst >= ncols {
			return fmt.Errorf("graph: update (%d,%d) outside %dx%d adjacency", u.Src, u.Dst, nrows, ncols)
		}
	}
	return nil
}

// mergeUpdates returns a new adjacency: normalized adj with norm — sorted by
// (src, dst), one mutation per key — merged in. adj is not modified.
func mergeUpdates[E any](adj *sparse.COO[E], norm []Update[E]) *sparse.COO[E] {
	out := &sparse.COO[E]{NRows: adj.NRows, NCols: adj.NCols}
	out.Entries = make([]sparse.Triple[E], 0, len(adj.Entries)+len(norm))
	src := adj.Entries
	i := 0
	for _, u := range norm {
		for i < len(src) && (src[i].Row < u.Src || (src[i].Row == u.Src && src[i].Col < u.Dst)) {
			out.Entries = append(out.Entries, src[i])
			i++
		}
		if i < len(src) && src[i].Row == u.Src && src[i].Col == u.Dst {
			i++
		}
		if !u.Del {
			out.Entries = append(out.Entries, sparse.Triple[E]{Row: u.Src, Col: u.Dst, Val: u.Val})
		}
	}
	out.Entries = append(out.Entries, src[i:]...)
	return out
}

// LookupEdge binary-searches a normalized (row-major sorted, deduplicated)
// adjacency for edge src→dst.
func LookupEdge[E any](adj *sparse.COO[E], src, dst uint32) (E, bool) {
	entries := adj.Entries
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		t := entries[mid]
		if t.Row < src || (t.Row == src && t.Col < dst) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(entries) && entries[lo].Row == src && entries[lo].Col == dst {
		return entries[lo].Val, true
	}
	var zero E
	return zero, false
}
