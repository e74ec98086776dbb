package graph

import (
	"fmt"
	"slices"
	"sort"

	"graphmat/internal/bitvec"
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
func (g *Graph[V, E]) applyBatch(batch []Update[E]) (*Graph[V, E], ApplyResult, error) {
	var res ApplyResult
	for _, u := range batch {
		if u.Src >= g.n || u.Dst >= g.n {
			return nil, res, fmt.Errorf("graph: update (%d,%d) outside %d-vertex graph", u.Src, u.Dst, g.n)
		}
	}
	norm := normalizeUpdates(batch)

	// Direction presence is decided from Options, not from runtime nil
	// checks: the opts-requested structures were built eagerly at
	// construction and are immutable, while a direction some run built
	// LAZILY mutates the shared snapshot graph and may be mid-build on
	// another goroutine right now. Such extras are deliberately not carried
	// into the successor — it rebuilds them from its own live set if asked.
	hasOut := g.opts.Directions&Out != 0
	hasIn := g.opts.Directions&In != 0
	ng := &Graph[V, E]{
		n: g.n, m: g.m,
		opts:           g.opts,
		epoch:          g.epoch + 1,
		pendingUpdates: g.pendingUpdates + len(norm),
	}
	if hasOut {
		ng.outParts = g.outParts
	}
	if hasIn {
		ng.inParts = g.inParts
	}
	ng.outDeg = slices.Clone(g.outDeg)
	ng.inDeg = slices.Clone(g.inDeg)

	// Accounting against the OLD live set decides degree and edge-count
	// deltas exactly: an upsert moves nothing, a no-op delete moves nothing.
	for _, u := range norm {
		_, present := g.HasEdge(u.Src, u.Dst)
		switch {
		case u.Del && present:
			res.Deleted++
			ng.outDeg[u.Src]--
			ng.inDeg[u.Dst]--
			ng.m--
		case u.Del:
			res.NoOps++
		case present:
			res.Updated++
		default:
			res.Inserted++
			ng.outDeg[u.Src]++
			ng.inDeg[u.Dst]++
			ng.m++
		}
	}

	if hasOut {
		ng.outDelta = buildDeltas(ng.outParts, g.outDelta, fwdMuts(norm), g.opts.Workers)
	}
	if hasIn {
		ng.inDelta = buildDeltas(ng.inParts, g.inDelta, bwdMuts(norm), g.opts.Workers)
	}
	ng.overlayNNZ = sparse.OverheadNNZ(ng.outDelta) + sparse.OverheadNNZ(ng.inDelta)

	ng.props = make([]V, g.n)
	ng.active = bitvec.New(int(g.n))
	res.Epoch = ng.epoch
	return ng, res, nil
}

// buildDeltas merges column-major sorted mutations into per-partition deltas,
// scattering by output row first (the same stable scatter the parallel
// partition build uses, so each partition sees its mutations in column-major
// order) and merging partitions concurrently. Untouched partitions share the
// old delta.
func buildDeltas[E any](parts, old []*sparse.DCSC[E], muts []sparse.Mut[E], workers int) []*sparse.DCSC[E] {
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
	return out
}

// findPartition locates the partition whose row range contains r. Partition
// row ranges are contiguous and nondecreasing (PartitionRows), so this is a
// binary search over the upper bounds.
func findPartition[E any](parts []*sparse.DCSC[E], r uint32) int {
	return sort.Search(len(parts), func(i int) bool { return parts[i].RowHi > r })
}

// HasEdge reports whether the directed edge src→dst is live, returning its
// value. The probe goes through a traversal direction the graph was BUILT
// with (per Options.Directions — those structures are immutable, unlike
// lazily built extras) — delta override first (authoritative), base column
// otherwise — and never triggers a lazy direction build.
func (g *Graph[V, E]) HasEdge(src, dst uint32) (E, bool) {
	// Forward structure: Row = dst, Col = src; backward: Row = src, Col = dst.
	parts, deltas, row, col := g.outParts, g.outDelta, dst, src
	if g.opts.Directions&Out == 0 {
		parts, deltas, row, col = g.inParts, g.inDelta, src, dst
	}
	var zero E
	p := findPartition(parts, row)
	if p >= len(parts) {
		return zero, false
	}
	l := sparse.Layered[E]{Base: parts[p]}
	if deltas != nil {
		l.Delta = deltas[p]
	}
	rows, vals := l.Column(col)
	if i, ok := findRow(rows, row); ok {
		return vals[i], true
	}
	return zero, false
}

// findRow binary-searches an ascending row list.
func findRow(rows []uint32, r uint32) (int, bool) {
	i := sort.Search(len(rows), func(k int) bool { return rows[k] >= r })
	if i < len(rows) && rows[i] == r {
		return i, true
	}
	return 0, false
}

// compacted returns a Graph with the same epoch and live edge set but no
// overlay: each built direction's live triples are materialized from its
// layers and rebuilt into fresh base partitions through the parallel
// partition pipeline. Degrees and the edge count describe the live set
// already and carry over. The receiver is untouched, so pinned snapshots of
// it stay valid.
func (g *Graph[V, E]) compacted() *Graph[V, E] {
	if g.pendingUpdates == 0 {
		return g
	}
	ng := &Graph[V, E]{n: g.n, m: g.m, opts: g.opts, epoch: g.epoch, outDeg: g.outDeg, inDeg: g.inDeg}
	// Rebuild per Options.Directions, not per runtime nil checks — the
	// same shared-mutation discipline applyBatch follows.
	if g.opts.Directions&Out != 0 {
		ng.outParts = ng.build(g.triples(Out))
	}
	if g.opts.Directions&In != 0 {
		ng.inParts = ng.build(g.triples(In))
	}
	ng.props = make([]V, g.n)
	ng.active = bitvec.New(int(g.n))
	return ng
}
