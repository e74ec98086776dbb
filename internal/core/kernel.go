package core

import (
	"math"
	"math/bits"

	"graphmat/internal/kernels"
	"graphmat/internal/sparse"
)

// This file is the traversal half of the kernel layer: the generalized
// sparse matrix–sparse vector multiplication of Algorithm 1 as three
// traversals of one partition, chosen per superstep (KernelCosts.Choose, then
// rowWalkPays):
//
//   - walkPull, the paper's column sweep: step through every stored column
//     and probe the frontier for a message from it. Input-dense, and a
//     scatter — it is driven by sources, so it cannot skip a destination;
//   - walkPush, the frontier-driven SpMSpV: look each frontier vertex up in
//     the column index. The same scatter over the frontier's columns only;
//   - walkRows, the destination-driven gather (the bottom-up step of
//     direction-optimizing BFS; GraphBLAST's masked pull): scan the
//     in-neighbours of each still-unsettled destination and stop at the
//     first one on the frontier. Only for programs that declare
//     FirstMessageFinal, over the base's RowIndex.
//
// A column walk decides WHICH live columns of a partition a frontier reaches
// and in what order; what happens to a column's edges is the sink's business
// (kernel_fold.go for the scalar engine, kernel_block.go for the k-wide block
// engine), so both engines and the single-shot SpMV share the two column
// walks. The row walk hands whole row ranges to a rowSink, which the generic
// fold of each engine is for a FirstMessageFinal program: the scalar gather
// (kernel_fold.go) and the k-wide one (kernel_block.go).
//
// Every partition is a sparse.Layered — an immutable base DCSC plus an
// optional delta DCSC of whole-column overrides carrying live edge updates;
// a plain partition is the nil-Delta case of the same walk. The invariants
// the engine depends on:
//
//  1. the partition owns a disjoint 64-aligned output row range (the delta
//     covers the same range as its base), so a sink's writes to the output
//     mask words and values need no synchronization;
//  2. all three traversals fold a destination's messages in ascending source
//     id. The column walks visit live columns in ascending column id, merged
//     across the two layers, with a delta override replacing (never joining)
//     its base column; the row walk scans a row's sources ascending and
//     takes the first. So the per-destination fold order is identical in
//     every traversal and equal to what a from-scratch build of the live
//     edge set would produce: all modes, and overlay versus fresh build, are
//     bit-identical;
//  3. an override with zero entries is a tombstone: it masks its base column
//     and is neither visited nor counted as a probe, matching the fresh
//     build in which the column does not exist;
//  4. a fully-live batch of base columns is folded as one edge range; order
//     and tallies as the column path;
//  5. the row walk reads the base only, so a layer with a pending delta
//     keeps the column walk until compaction folds the delta away. Both
//     write the same rows to the same bits, so they mix within a superstep.
//
// rlo/rhi bound the destination rows a call folds (the scheduler's
// nnz-weighted sub-partition tasks); the whole-partition sentinel is rlo=0,
// rhi=^uint32(0). Rows ascend within each column, so a bounded call takes a
// contiguous sub-run per column — per-destination fold order is exactly the
// unbounded call's, and the bounded calls of any 64-aligned cut compose to
// the whole-partition call.

// colRef is one live column a walk hands its sink: the column id and the
// position range of its edges in the owning layer's IR/Val arrays, already
// clipped to the call's row bounds.
type colRef struct{ j, lo, hi uint32 }

// walkBatch sizes the walks' column buffer. A sink is a dynamic call (the
// fold is resolved once per run, not compiled into the walk), and with a
// handful of edges per column a call per column would cost as much as the
// fold itself — so the walks gather the columns a frontier reaches and pay
// one call per batch.
const walkBatch = 64

// colSink is the fold half of a kernel call: it consumes the live columns a
// walk visits. fold folds the edges of each column of cols, in order — the
// rows ir[c.lo:c.hi] (ascending) with their edge values val[c.lo:c.hi] —
// into the output and returns the number of edge folds it performed. Sinks
// are resolved once per run from the program and its vectors and shared
// read-only by every task; the per-edge loop lives inside the concrete sink.
//
// A sink may also be a flatSink; the pull walk then hands it fully-live
// column batches as one edge range instead of column by column.
type colSink[E any] interface {
	fold(ir []uint32, val []E, cols []colRef) int
}

// flatSink is the optional second entry of a colSink: foldFlat folds a run
// of consecutive stored columns that ALL carry a message as one flat loop
// over their edges — edge k goes to row ir[k] with value val[k] from source
// column src[k] (sparse.DCSC.EdgeCols) — in ascending k. That is the fold
// sequence fold performs over the same columns (ascending column, ascending
// row within it), so the two are interchangeable bit for bit; what foldFlat
// drops is the per-column loop nest, whose exit mispredicts once per column
// on graphs averaging a handful of edges per column segment. The scalar
// sinks implement it; the block sinks keep the column fold.
type flatSink[E any] interface {
	foldFlat(ir []uint32, val []E, src []uint32)
}

// rowSink is a colSink that can also gather: foldRows visits destination
// rows [rlo, rhi) of rows' structure — in range by the caller's clipping —
// and, for each one the program still reports unsettled, scans its sources
// in ascending id for the first with a frontier bit in xw, folds that one
// edge into the output and leaves the row — per column, in the block engine,
// whose row scan ends when every waiting column has had its first. It
// returns the number of edge slots it examined. The generic fold of a
// FirstMessageFinal program is one, scalar (kernel_fold.go) or k-wide
// (kernel_block.go); the fused sum and path sinks are not.
type rowSink[E any] interface {
	colSink[E]
	foldRows(rows *sparse.RowIndex[E], xw []uint64, rlo, rhi uint32) int
}

// multiply runs one multiply-phase task over partition l against the
// frontier occupancy words xw, restricted to destination rows [rlo, rhi):
// the row walk when the superstep chose it (rows non-nil) and the layer has
// no pending delta, else the column walk mode selects (Auto must be resolved
// first, see KernelCosts.Choose).
func multiply[E any](mode Mode, l sparse.Layered[E], xw []uint64, rlo, rhi uint32, sink colSink[E], rows rowSink[E], st *localStats) {
	switch {
	case rows != nil && l.Delta == nil:
		walkRows(l.Base, xw, rlo, rhi, rows, st)
	case mode == Push:
		walkPush(l, xw, rlo, rhi, sink, st)
	default:
		walkPull(l, xw, rlo, rhi, sink, st)
	}
}

// walkRows is the destination-driven traversal: the rows of [rlo, rhi) that
// fall in base's range, through the sink's gather, over base's row-major
// view — built here, by the first task to need it, so the partitions of a
// first row-walk superstep build theirs in parallel. It probes no columns;
// the frontier tests it makes are the edge slots it examines.
func walkRows[E any](base *sparse.DCSC[E], xw []uint64, rlo, rhi uint32, sink rowSink[E], st *localStats) {
	rlo, rhi = max(rlo, base.RowLo), min(rhi, base.RowHi)
	if rlo >= rhi {
		return
	}
	st.edges += int64(sink.foldRows(base.RowIndex(), xw, rlo, rhi))
}

// walkPull is Algorithm 1's traversal: step through the partition's live
// columns and probe the frontier bitvector for a message from each (line 4
// — "becomes faster due to use of the bitvector"). The two layers merge by
// runs: one arch-dispatched SpanLess scan takes every base column below the
// next override, then the override itself. A plain partition is one run —
// a straight scan of the base.
//
// When gather finds every column of a batch live — each batch of an
// all-active superstep, which is every superstep of PageRank, PPR and HITS —
// and the call covers the partition's whole row range, the batch's edges
// are the contiguous positions CP[bi]..CP[bi+n] and go to a flatSink as one
// range. Anything else (a partly live batch, an override, a row-clipped
// sub-partition task, a sink without foldFlat) takes the column path.
func walkPull[E any](l sparse.Layered[E], xw []uint64, rlo, rhi uint32, sink colSink[E], st *localStats) {
	base, delta := l.Base, l.Delta
	bjc, bcp := base.JC, base.CP
	var djc []uint32
	if delta != nil {
		djc = delta.JC
	}
	var flat flatSink[E]
	if rlo <= base.RowLo && rhi >= base.RowHi {
		flat, _ = sink.(flatSink[E])
	}
	var src []uint32 // base.EdgeCols(), fetched on the first fully-live batch
	var buf [walkBatch]colRef
	probes, edges, flatEdges := 0, 0, 0
	bi, di := 0, 0
	for {
		run := bjc[bi:]
		if di < len(djc) {
			run = run[:kernels.SpanLess(run, djc[di])]
		}
		probes += len(run)
		// Gather a buffer's worth of columns at a time: the probe loop
		// stays call-free, so a sparse frontier sweeps the column list at
		// full speed.
		for len(run) > 0 {
			chunk := run[:min(len(run), walkBatch)]
			if n := gather(&buf, chunk, bcp[bi:], xw); n == len(chunk) && flat != nil {
				if src == nil {
					src = base.EdgeCols()
				}
				lo, hi := bcp[bi], bcp[bi+n]
				flat.foldFlat(base.IR[lo:hi], base.Val[lo:hi], src[lo:hi])
				flatEdges += int(hi - lo)
			} else if n > 0 {
				edges += emit(sink, base, buf[:n], rlo, rhi)
			}
			bi += len(chunk)
			run = run[len(chunk):]
		}
		if di == len(djc) {
			break
		}
		j := djc[di]
		if bi < len(bjc) && bjc[bi] == j {
			bi++ // base column overridden
		}
		if lo, hi := delta.CP[di], delta.CP[di+1]; lo != hi { // else a tombstone: not live, not probed
			probes++
			if xw[j>>6]&(1<<(j&63)) != 0 {
				buf[0] = colRef{j, lo, hi}
				edges += emit(sink, delta, buf[:1], rlo, rhi)
			}
		}
		di++
	}
	st.probes += int64(probes)
	st.edges += int64(edges + flatEdges)
	st.flat += int64(flatEdges)
}

// walkPush is the frontier-driven dual — a true SpMSpV: iterate the
// frontier's set bits in ascending index order and look each up in the
// partition's column index (delta first: an override is authoritative)
// instead of probing every stored column. Work is proportional to
// |frontier| × O(1) AUX lookups plus the frontier's edges, not to the
// partition's live column count, which is what makes a 10-vertex BFS
// frontier cheap on a scale-18 graph. Hand-assembled layers without the AUX
// index take FindColumn's binary-search fallback.
func walkPush[E any](l sparse.Layered[E], xw []uint64, rlo, rhi uint32, sink colSink[E], st *localStats) {
	base, delta := l.Base, l.Delta
	// Only frontier words overlapping either layer's stored column range
	// can match; everything outside is skipped wholesale.
	loCol, hiCol := uint32(math.MaxUint32), uint32(0)
	for _, d := range [2]*sparse.DCSC[E]{base, delta} {
		if d != nil && len(d.JC) > 0 {
			loCol = min(loCol, d.JC[0])
			hiCol = max(hiCol, d.JC[len(d.JC)-1])
		}
	}
	if loCol > hiCol {
		return // no stored columns in either layer
	}
	// The base lookup is DCSC.FindColumn's AUX arm written out below: that
	// method is past the inlining budget, and its call per frontier vertex
	// per partition was a tenth of an all-push BFS.
	baux, bshift, bjc := base.Aux, base.AuxShift, base.JC
	// buf[:n] holds found columns of layer cur awaiting their fold.
	var buf [walkBatch]colRef
	cur, n := base, 0
	probes, edges := 0, 0
	loW := int(loCol >> 6)
	hiW := min(int(hiCol>>6)+1, len(xw))
	for wi := loW; wi < hiW; wi++ {
		w := xw[wi]
		if w == 0 {
			// Vectorized scan to the next frontier word: sparse frontiers
			// spread over a wide id range skip the zero run in one sweep.
			skip := kernels.FirstNonzero(xw[wi:hiW])
			if skip < 0 {
				break
			}
			wi += skip
			w = xw[wi]
		}
		for ; w != 0; w &= w - 1 {
			j := uint32(wi)<<6 + uint32(bits.TrailingZeros64(w))
			probes++
			d, ci, ok := delta, 0, false
			if delta != nil {
				ci, ok = delta.FindColumn(j)
			}
			if !ok {
				d = base
				if baux == nil {
					ci, ok = base.FindColumn(j)
				} else if b := int(j >> bshift); b+1 < len(baux) {
					for c, end := int(baux[b]), int(baux[b+1]); c < end; c++ {
						if bjc[c] >= j {
							ci, ok = c, bjc[c] == j
							break
						}
					}
				}
			}
			if !ok {
				continue
			}
			lo, hi := d.CP[ci], d.CP[ci+1]
			if lo == hi {
				continue // tombstone
			}
			if n == len(buf) || (d != cur && n > 0) {
				edges += emit(sink, cur, buf[:n], rlo, rhi)
				n = 0
			}
			cur = d
			buf[n] = colRef{j, lo, hi}
			n++
		}
	}
	if n > 0 {
		edges += emit(sink, cur, buf[:n], rlo, rhi)
	}
	st.probes += int64(probes)
	st.edges += int64(edges)
}

// gather probes the frontier words xw for each stored column jc[i] (at most
// walkBatch of them; its edges lie at positions cp[i]..cp[i+1]) and collects
// the ones that hold a message into buf, returning their count. Kept out of
// line: as its own function the probe loop holds its counters in registers;
// inlined into walkPull's register pressure they spill to the stack, which
// about doubles the cost of sweeping past a column a sparse frontier misses.
//
//go:noinline
func gather(buf *[walkBatch]colRef, jc, cp []uint32, xw []uint64) int {
	n := 0
	for i, j := range jc {
		if xw[j>>6]&(1<<(j&63)) != 0 {
			buf[n] = colRef{j, cp[i], cp[i+1]}
			n++
		}
	}
	return n
}

// emit hands the gathered columns of layer d to the sink and returns its
// edge-fold count. A sub-partition task — [rlo, rhi) narrower than the
// layer's row range — first clips each column to those rows, in place,
// dropping columns with no rows there.
func emit[E any](sink colSink[E], d *sparse.DCSC[E], cols []colRef, rlo, rhi uint32) int {
	if rlo > d.RowLo || rhi < d.RowHi {
		kept := cols[:0]
		for _, c := range cols {
			if l, r := rowSpan(d.IR[c.lo:c.hi], rlo, rhi); l < r {
				kept = append(kept, colRef{c.j, c.lo + uint32(l), c.lo + uint32(r)})
			}
		}
		if cols = kept; len(cols) == 0 {
			return 0
		}
	}
	return sink.fold(d.IR, d.Val, cols)
}

// rowSpan returns the half-open index range of irc — one column's
// ascending destination-row run — whose rows fall in [rlo, rhi): two binary
// searches behind endpoint fast paths.
func rowSpan(irc []uint32, rlo, rhi uint32) (int, int) {
	// Endpoint fast paths: a bounded task checks every live column of its
	// partition, but each column intersects only the few tasks its row
	// extent spans — the disjoint and fully-contained cases resolve on two
	// loads, no search.
	n := len(irc)
	if n == 0 || irc[0] >= rhi || irc[n-1] < rlo {
		return 0, 0
	}
	if irc[0] >= rlo && irc[n-1] < rhi {
		return 0, n
	}
	lo, hi := 0, len(irc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if irc[mid] < rlo {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l := lo
	hi = len(irc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if irc[mid] < rhi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l, lo
}

// pushProbeCost is how many pull probes one push probe is worth in the Auto
// cost model. A pull probe is a sequential JC scan step with a bit test — a
// load and a branch the prefetcher hides; a push probe is an AUX bucket
// lookup with two dependent loads into per-partition arrays. Measured on
// RMAT and grid workloads the gap is 3–8×; 4 is the conservative midpoint
// (ties go to pull, whose worst case is bounded).
const pushProbeCost = 4

// KernelCosts carries the structure-side quantities of the Auto decision,
// computed once per run (they depend only on the traversal structures).
type KernelCosts struct {
	// TotalEdges is the stored nonzeros of the traversal structures — the
	// denominator of the Ligra-style edge-work rule.
	TotalEdges int64
	// TotalNZCols is the summed nonzero-column count over all partitions:
	// exactly the probe bill a pull superstep pays regardless of frontier
	// size.
	TotalNZCols int64
	// Partitions is the partition count: a push superstep pays one column
	// lookup per frontier vertex per partition.
	Partitions int
}

// addLayers folds a layered partition set into the cost model using the
// LIVE quantities — the edge and column counts the walks will actually see,
// not the base's. liveNNZ is the layers' live edge weights (liveWeights),
// computed once per run and shared with the task shaper.
func addLayers[E any](c KernelCosts, layers []sparse.Layered[E], liveNNZ []int) KernelCosts {
	for i, l := range layers {
		c.TotalEdges += int64(liveNNZ[i])
		c.TotalNZCols += int64(l.LiveNZColumns())
	}
	c.Partitions += len(layers)
	return c
}

// Choose resolves a configured mode for one superstep to one of the two
// column walks. Pull and Push pass through. Auto pushes only when both sides
// of the cost model agree:
//
//  1. the Ligra-style edge-work rule — the frontier's outgoing edge work
//     (the degree sum of the sending vertices with respect to the traversal
//     structure) times DefaultPushThreshold fits within the structure's
//     total edge count, so the superstep is frontier-sparse;
//  2. the probe rule — the push walk's lookup bill (frontier size ×
//     partitions, each lookup worth pushProbeCost column-sweep probes)
//     undercuts the column sweep's fixed per-superstep bill.
//
// Rule 1 keeps dense frontiers (PageRank, BFS's middle supersteps) on the
// column sweep; rule 2 keeps mid-size frontiers there when per-vertex
// lookups across many partitions would cost more than one sequential sweep
// of the columns. Both outcomes are scatters driven by source columns — this
// is a choice of how to find the frontier's columns, not of direction. The
// direction change of Beamer-style BFS is the third traversal, the row walk,
// which a Pull superstep of a FirstMessageFinal program takes when
// rowWalkPays. All three fold each destination's messages in ascending
// source id, which is why the choice never shows in the results.
func (c KernelCosts) Choose(mode Mode, frontierSize, frontierEdges int64) Mode {
	if mode != Auto {
		return mode
	}
	if float64(frontierEdges)*DefaultPushThreshold > float64(c.TotalEdges) {
		return Pull
	}
	if frontierSize*int64(c.Partitions)*pushProbeCost > c.TotalNZCols {
		return Pull
	}
	return Push
}

// rowWalkGain is the Beamer ratio of the row-walk decision: how many edge
// slots of unsettled rows one frontier edge is worth. The column sweep pays
// a fold — a random read-modify-write of y through two callbacks — for every
// frontier edge, settled destination or not; the row walk pays a frontier
// bit test on a sequentially read source id per slot, and stops at the first
// hit, so it rarely examines all of them.
const rowWalkGain = 14

// rowWalkPays is the Beamer test for one Pull superstep of a
// FirstMessageFinal program: gather when the frontier's edge work — every
// edge the column sweep would fold — times rowWalkGain exceeds the degree
// sum of the still-unsettled vertices, which bounds the slots a row walk can
// examine. A handful of frontier vertices in a mostly unsettled graph keeps
// the sweep; BFS's middle supersteps, and every superstep once most of the
// graph is settled, gather.
func rowWalkPays(frontierEdges, unsettledEdges int64) bool {
	return frontierEdges*rowWalkGain > unsettledEdges
}
