package graph

import (
	"fmt"
	"slices"
	"sort"

	"graphmat/internal/sparse"
)

// This file is the mutation half of the versioned store: applying a batch of
// edge updates to an immutable Graph produces a NEW Graph one epoch later
// that shares the base partitions and carries the divergence as per-partition
// delta overlays, plus the compaction that folds an oversized overlay back
// into the base through the parallel rebuild pipeline. Nothing here mutates
// the receiver — snapshot isolation falls out of the sharing discipline, not
// locking.

// minParallelDeltaMuts is the mutation count below which delta merges run on
// the calling goroutine. MergeDelta is a linear merge over the touched
// columns; for typical small batches the per-batch goroutine fan-out/park
// cycle dominates the merge itself (the board's graph.apply_ms at 4 workers).
const minParallelDeltaMuts = 1 << 12

// ApplyResult reports what one update batch did.
type ApplyResult struct {
	// Epoch is the edge-set version the batch produced.
	Epoch uint64 `json:"epoch"`
	// Inserted counts updates that added an edge absent from the live set.
	Inserted int `json:"inserted"`
	// Deleted counts updates that removed a live edge.
	Deleted int `json:"deleted"`
	// Updated counts upserts of edges that already existed (value replace).
	Updated int `json:"updated"`
	// NoOps counts deletes of edges that were not live.
	NoOps int `json:"noops"`
	// Compacted reports whether the batch pushed the overlay past the
	// compaction fraction and the store folded it into the base.
	Compacted bool `json:"compacted"`
}

// applyBatch returns a new Graph representing this graph's edge set with the
// batch applied, one epoch later. The receiver is not modified; the result
// shares its base structures. Degrees, edge count and both traversal
// directions stay coherent with what a from-scratch build of the same edge
// set would produce.
func (g *Graph[E]) applyBatch(batch []Update[E]) (*Graph[E], ApplyResult, error) {
	var res ApplyResult
	for _, u := range batch {
		if u.Src >= g.n || u.Dst >= g.n {
			return nil, res, fmt.Errorf("graph: update (%d,%d) outside %d-vertex graph", u.Src, u.Dst, g.n)
		}
	}
	norm := normalizeUpdates(batch)

	hasOut := g.opts.Directions&Out != 0
	hasIn := g.opts.Directions&In != 0
	ng := &Graph[E]{
		n: g.n, m: g.m,
		outParts: g.outParts, inParts: g.inParts,
		opts:           g.opts,
		epoch:          g.epoch + 1,
		pendingUpdates: g.pendingUpdates + len(norm),
	}
	ng.outDeg = slices.Clone(g.outDeg)
	ng.inDeg = slices.Clone(g.inDeg)

	// Accounting against the OLD live set decides degree and edge-count
	// deltas exactly: an upsert moves nothing, a no-op delete moves nothing.
	// The merge of one built direction (Out when the graph has it) finds
	// each update's entry in the old live set as it merges, so no update is
	// looked up twice.
	account := func(src, dst uint32, del, present bool) {
		switch {
		case del && present:
			res.Deleted++
			ng.outDeg[src]--
			ng.inDeg[dst]--
			ng.m--
		case del:
			res.NoOps++
		case present:
			res.Updated++
		default:
			res.Inserted++
			ng.outDeg[src]++
			ng.inDeg[dst]++
			ng.m++
		}
	}
	if hasOut {
		ng.outDelta = buildDeltas(ng.outParts, g.outDelta, fwdMuts(norm), g.opts.Workers, func(m sparse.Mut[E]) {
			account(m.Col, m.Row, m.Del, m.Existed)
		})
	}
	if hasIn {
		var inAccount func(sparse.Mut[E])
		if !hasOut {
			inAccount = func(m sparse.Mut[E]) { account(m.Row, m.Col, m.Del, m.Existed) }
		}
		ng.inDelta = buildDeltas(ng.inParts, g.inDelta, bwdMuts(norm), g.opts.Workers, inAccount)
	}
	ng.overlayNNZ = sparse.OverheadNNZ(ng.outDelta) + sparse.OverheadNNZ(ng.inDelta)
	res.Epoch = ng.epoch
	return ng, res, nil
}

// buildDeltas merges column-major sorted mutations into per-partition deltas,
// scattering by output row first (the same stable scatter the parallel
// partition build uses, so each partition sees its mutations in column-major
// order) and merging partitions concurrently. Untouched partitions share the
// old delta. A non-nil account is then called once per mutation, on the
// calling goroutine, with its Existed set by the merge.
func buildDeltas[E any](parts, old []*sparse.DCSC[E], muts []sparse.Mut[E], workers int, account func(sparse.Mut[E])) []*sparse.DCSC[E] {
	nparts := len(parts)
	frags := make([][]sparse.Mut[E], nparts)
	for _, m := range muts {
		p := findPartition(parts, m.Row)
		frags[p] = append(frags[p], m)
	}
	out := make([]*sparse.DCSC[E], nparts)
	nworkers := sparse.Workers(workers)
	if len(muts) < minParallelDeltaMuts {
		// Small batches merge inline: spawning and parking goroutines costs
		// more than merging a few thousand mutations.
		nworkers = 1
	}
	sparse.ParallelFor(nparts, nworkers, func(p int) {
		var prev *sparse.DCSC[E]
		if old != nil {
			prev = old[p]
		}
		out[p] = sparse.MergeDelta(parts[p], prev, frags[p])
	})
	if account != nil {
		for _, frag := range frags {
			for _, m := range frag {
				account(m)
			}
		}
	}
	return out
}

// findPartition locates the partition whose row range contains r. Partition
// row ranges are contiguous and nondecreasing (PartitionRows), so this is a
// binary search over the upper bounds.
func findPartition[E any](parts []*sparse.DCSC[E], r uint32) int {
	return sort.Search(len(parts), func(i int) bool { return parts[i].RowHi > r })
}

// compacted returns a Graph with the same epoch and live edge set but no
// overlay: each built direction's live triples are materialized from its
// layers and rebuilt into fresh base partitions through the parallel
// partition pipeline. Degrees and the edge count describe the live set
// already and carry over. The receiver is untouched, so pinned snapshots of
// it stay valid.
func (g *Graph[E]) compacted() *Graph[E] {
	if g.pendingUpdates == 0 {
		return g
	}
	ng := &Graph[E]{n: g.n, m: g.m, opts: g.opts, epoch: g.epoch, outDeg: g.outDeg, inDeg: g.inDeg}
	if g.opts.Directions&Out != 0 {
		ng.outParts = ng.build(g.triples(Out))
	}
	if g.opts.Directions&In != 0 {
		ng.inParts = ng.build(g.triples(In))
	}
	return ng
}
