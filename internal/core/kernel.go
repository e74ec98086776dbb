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
//   - walkPush, the frontier-driven SpMSpV: AND each frontier word with the
//     column bitmap and take the columns it hits by rank. The same scatter
//     over the frontier's columns only;
//   - walkRows, the destination-driven gather (the bottom-up step of
//     direction-optimizing BFS; GraphBLAST's masked pull): scan the
//     in-neighbours of each still-unsettled destination and stop at the
//     first one on the frontier. Only for programs that declare
//     SemiringBoolean, FirstMessageFinal and DstIndependent, over the
//     base's RowIndex — merged, on a partition with pending updates, with
//     the delta's (liveRow).
//
// A column walk decides WHICH live columns of a partition a frontier reaches
// and in what order; what happens to a column's edges is the sink's business
// (kernel_fold.go for the scalar engine, kernel_block.go for the k-wide block
// engine), so both engines and the single-shot SpMV share the two column
// walks. The row walk hands a partition's rows to a rowSink, which only the
// column-mask fold is, at one column (maskSink, kernel_fold.go) or k
// (blockMaskSink, kernel_block.go): a row walk reads which sources reach a
// row, never an edge value, a message or a property, so it is a structure
// scan like GraphBLAST's boolean masked pull.
//
// Every partition is a sparse.Layered — an immutable base DCSC plus an
// optional delta DCSC of whole-column overrides carrying live edge updates;
// a plain partition is the nil-Delta case of the same walk. A walk call is
// one multiply task and always covers its whole partition: the graph's row
// partitions (graph.Options.Partitions, balanced by nonzeros at build time)
// are the unit of parallel work, so no walk takes row bounds. The invariants
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
//  4. a fully-live plain partition is folded as one edge range, and so is a
//     fully-live batch of base columns otherwise; order and tallies as the
//     column path.
//
// The row walk keeps 2 and 3 by reading a row as the fresh build stores it:
// the base row without the entries of overridden columns, merged with the
// delta row. It counts only those live entries as examined slots, so its
// tallies, like its output, are the fresh build's.

// colRef is one live column a walk hands its sink: the column id and the
// position range of its edges in the owning layer's IR/Val arrays.
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
// A sink may also be a flatSink; the pull walk then hands it a fully-live
// partition, or else each fully-live column batch, as one edge range instead
// of column by column.
type colSink[E any] interface {
	fold(ir []uint32, val []E, cols []colRef) int
}

// flatSink is the optional second entry of a colSink: foldFlat folds a run
// of consecutive stored columns that ALL carry a message — a whole plain
// partition on an all-active superstep, one batch otherwise — as one flat loop
// over their edges — edge k goes to row ir[k] with value val[k] from source
// column src[k] (sparse.DCSC.EdgeCols) — in ascending k. That is the fold
// sequence fold performs over the same columns (ascending column, ascending
// row within it), so the two are interchangeable bit for bit; what foldFlat
// drops is the per-column loop nest, whose exit mispredicts once per column
// on graphs averaging a handful of edges per column segment. The scalar
// sinks implement it; the block sinks keep the column fold.
//
// rows is set only when the edges are a whole partition's: then it holds
// exactly the rows ir lands on, and a sink whose reduction has a bit-exact
// identity may seed those rows with it and fold with no occupancy test
// (sumSinkF64, minSinkU32). A batch, or a partition without a row mask,
// comes with the zero rowMask, and every sink folds it masked.
type flatSink[E any] interface {
	foldFlat(ir []uint32, val []E, src []uint32, rows rowMask)
}

// rowMask is the set of destination rows of a whole partition's edges,
// sparse.DCSC.RowMask: words[i] lines up with the output's mask word w0+i.
// words is nil when there is none to use.
type rowMask struct {
	w0    int
	words []uint64
}

// rowSink is a column-mask fold that can also gather: foldRows visits every
// destination row of rows and, for each one the run's settled mask leaves
// unsettled, scans its sources in ascending id for the first with a
// frontier bit in xw, marks the row received and leaves it — per column, in
// the block engine, whose row scan ends when every waiting column has had
// its first. It returns the number of edge slots it examined. A plain
// partition's rows are scanned as one array, a partition with a pending
// delta's through a liveRow cursor. No value is read or folded: only a
// program declaring SemiringBoolean, FirstMessageFinal and DstIndependent
// gathers, and its messages all process to one value per column, which the
// apply phase hands out (maskSink, blockMaskSink).
type rowSink[E any] interface {
	colSink[E]
	foldRows(rows liveRows, xw []uint64) int
}

// multiply runs one multiply-phase task — partition l, whole — against the
// frontier occupancy words xw: the row walk when the superstep chose it (rows
// non-nil), else the column walk mode selects (Auto must be resolved first,
// see KernelCosts.Choose).
func multiply[E any](mode Mode, l sparse.Layered[E], xw []uint64, sink colSink[E], rows rowSink[E], st *localStats) {
	switch {
	case rows != nil:
		walkRows(l, xw, rows, st)
	case mode == Push:
		walkPush(l, xw, sink, st)
	default:
		walkPull(l, xw, sink, st)
	}
}

// walkRows is the destination-driven traversal: every row of partition l,
// through the sink's gather, over the base's row-major view and, when l has
// a pending delta, the delta's beside it with the delta's column index as
// the override set (liveRows). The views are built here, each by the first
// task to need it, so the partitions of a first row-walk superstep build
// theirs in parallel, and a delta's row view is one counting sort of its own
// entries, once per delta. It probes no columns; the frontier tests it makes
// are the edge slots it examines.
func walkRows[E any](l sparse.Layered[E], xw []uint64, sink rowSink[E], st *localStats) {
	rows := liveRows{base: l.Base.RowIndex()}
	if l.Delta != nil {
		rows.delta, rows.over = l.Delta.RowIndex(), l.Delta.ColumnIndex()
	}
	st.edges += int64(sink.foldRows(rows, xw))
}

// liveRows is the row walk's view of a partition: the base's row-major view
// and, when the partition has a pending delta (else nil), the delta's, which
// covers the same rows, and its column index — every column it overrides,
// tombstones included.
type liveRows struct {
	base, delta *sparse.RowIndex
	over        *sparse.ColumnIndex
}

// row returns a cursor over the view's i-th row.
func (v liveRows) row(i int) liveRow {
	b, d := v.base, v.delta
	return liveRow{base: b.Src[b.Ptr[i]:b.Ptr[i+1]], delta: d.Src[d.Ptr[i]:d.Ptr[i+1]], over: v.over}
}

// liveRow is the one merge of a base and a delta row the two mask gathers
// share: the base row's entries whose source column the delta does not
// override, merged in ascending source id with the delta row's entries —
// exactly the row a fresh build of the live edge set stores. base and delta
// are each row's sources not yet passed. seen counts the live slots next has
// examined; a skipped base entry is not one.
type liveRow struct {
	base, delta []uint32
	over        *sparse.ColumnIndex
	seen        int
}

// next advances past the row's live entries off the frontier xw to the
// next one on it and returns its source, or ok = false at the row's end. It
// takes the row in runs: the base entries below the delta row's next
// source, each tested against the override set, then that delta entry.
func (r *liveRow) next(xw []uint64) (src uint32, ok bool) {
	base, delta, over, seen := r.base, r.delta, r.over, r.seen
	for {
		lim := uint32(math.MaxUint32) // no vertex id reaches it
		if len(delta) > 0 {
			lim = delta[0]
		}
		for len(base) > 0 && base[0] < lim {
			src, base = base[0], base[1:]
			if over.Has(src) {
				continue // the delta holds this column's live entries
			}
			seen++
			if xw[src>>6]&(1<<(src&63)) != 0 {
				r.base, r.delta, r.seen = base, delta, seen
				return src, true
			}
		}
		if len(delta) == 0 {
			r.base, r.delta, r.seen = base, delta, seen
			return 0, false
		}
		src, delta = delta[0], delta[1:]
		seen++
		if xw[src>>6]&(1<<(src&63)) != 0 {
			r.base, r.delta, r.seen = base, delta, seen
			return src, true
		}
	}
}

// walkPull is Algorithm 1's traversal: step through the partition's live
// columns and probe the frontier bitvector for a message from each (line 4
// — "becomes faster due to use of the bitvector"). The two layers merge by
// runs: one arch-dispatched SpanLess scan takes every base column below the
// next override, then the override itself. A plain partition is one run —
// a straight scan of the base.
//
// A call with a flatSink has two flat folds. On a plain partition it first
// tests, once, whether every stored column is live (allLive: the column
// bitmap against the frontier, a word at a time) — true on every superstep of
// PageRank, PPR and HITS — and
// if so hands the whole partition, CP[0]..CP[len(JC)], to one foldFlat call
// together with its row mask, so the sum and min sinks fold it mask-free.
// Otherwise it gathers walkBatch columns at a time, and a batch gather finds
// all live — the stretches of a partly live frontier that happen to be full,
// the base runs between an overlay's overrides — is folded as the one range
// CP[bi]..CP[bi+n]. Anything else (a partly live batch, an override, a sink
// without foldFlat) takes the column path. All three fold the same edges in
// the same order and tally the same probes and edges.
func walkPull[E any](l sparse.Layered[E], xw []uint64, sink colSink[E], st *localStats) {
	base, delta := l.Base, l.Delta
	bjc, bcp := base.JC, base.CP
	var djc []uint32
	if delta != nil {
		djc = delta.JC
	}
	flat, _ := sink.(flatSink[E])
	if flat != nil && delta == nil && allLive(base, xw) {
		lo, hi := bcp[0], bcp[len(bjc)]
		rows := rowMask{int(base.RowLo >> 6), base.RowMask()}
		flat.foldFlat(base.IR[lo:hi], base.Val[lo:hi], base.EdgeCols()[lo:hi], rows)
		st.probes += int64(len(bjc))
		st.edges += int64(hi - lo)
		st.flat += int64(hi - lo)
		return
	}
	var src []uint32 // base.EdgeCols(), fetched on the first fully-live batch
	buf := &st.buf
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
			if n := gather(buf, chunk, bcp[bi:], xw); n == len(chunk) && flat != nil {
				if src == nil {
					src = base.EdgeCols()
				}
				lo, hi := bcp[bi], bcp[bi+n]
				flat.foldFlat(base.IR[lo:hi], base.Val[lo:hi], src[lo:hi], rowMask{})
				flatEdges += int(hi - lo)
			} else if n > 0 {
				edges += sink.fold(base.IR, base.Val, buf[:n])
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
				edges += sink.fold(delta.IR, delta.Val, buf[:1])
			}
		}
		di++
	}
	st.probes += int64(probes)
	st.edges += int64(edges + flatEdges)
	st.flat += int64(flatEdges)
}

// walkPush is the frontier-driven dual — a true SpMSpV: walk the frontier's
// words in ascending order and AND each with the words of both layers'
// column bitmaps (sparse.ColumnIndex), so only frontier vertices with a
// stored column survive, and take each survivor's JC position by rank — a
// popcount, with no dependent load before CP. A delta bit is authoritative:
// the column is read from the delta, and an empty one is a tombstone. Work
// is proportional to the frontier's words in the layer's span plus the
// frontier's edges, not to the partition's live column count, which is what
// makes a 10-vertex BFS frontier cheap on a scale-18 graph. Every frontier
// bit in the span counts as a probe, hit or not.
func walkPush[E any](l sparse.Layered[E], xw []uint64, sink colSink[E], st *localStats) {
	base, delta := l.Base, l.Delta
	// Only frontier words overlapping either layer's stored column range
	// can match; everything outside is skipped wholesale.
	loW, hiW := pushWords(l)
	hiW = min(hiW, len(xw))
	bx, dx := base.ColumnIndex(), &sparse.ColumnIndex{}
	if delta != nil {
		dx = delta.ColumnIndex()
	}
	// buf[:n] holds found columns of layer cur awaiting their fold.
	buf := &st.buf
	cur, n := base, 0
	probes, edges := 0, 0
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
		probes += bits.OnesCount64(w)
		var bw, dw uint64
		var br, dr uint32
		if k := wi - bx.Lo; uint(k) < uint(len(bx.Bits)) {
			bw, br = bx.Bits[k], bx.Rank[k]
		}
		if k := wi - dx.Lo; uint(k) < uint(len(dx.Bits)) {
			dw, dr = dx.Bits[k], dx.Rank[k]
		}
		for hit := w & (bw | dw); hit != 0; hit &= hit - 1 {
			bit := hit & -hit
			d, ci := base, int(br)+bits.OnesCount64(bw&(bit-1))
			if dw&bit != 0 {
				d, ci = delta, int(dr)+bits.OnesCount64(dw&(bit-1))
			}
			lo, hi := d.CP[ci], d.CP[ci+1]
			if lo == hi {
				continue // tombstone
			}
			if n == len(buf) || (d != cur && n > 0) {
				edges += sink.fold(cur.IR, cur.Val, buf[:n])
				n = 0
			}
			cur = d
			buf[n] = colRef{uint32(wi)<<6 + uint32(bits.TrailingZeros64(hit)), lo, hi}
			n++
		}
	}
	if n > 0 {
		edges += sink.fold(cur.IR, cur.Val, buf[:n])
	}
	st.probes += int64(probes)
	st.edges += int64(edges)
}

// pushWords returns the frontier words [loW, hiW) walkPush scans for layer
// l: those overlapping the stored column range of either layer, tombstones
// included. The range is empty when neither layer stores a column.
func pushWords[E any](l sparse.Layered[E]) (loW, hiW int) {
	loCol, hiCol := uint32(math.MaxUint32), uint32(0)
	for _, d := range [2]*sparse.DCSC[E]{l.Base, l.Delta} {
		if d != nil && len(d.JC) > 0 {
			loCol = min(loCol, d.JC[0])
			hiCol = max(hiCol, d.JC[len(d.JC)-1])
		}
	}
	if loCol > hiCol {
		return 0, 0
	}
	return int(loCol >> 6), int(hiCol>>6) + 1
}

// allLive reports whether every stored column of d holds a message in the
// frontier words xw: one AND-NOT of each column-bitmap word against the
// frontier word it covers, stopping at the first word with a dead column. The
// bitmap must hold exactly len(JC) ids — a JC with a repeated id or one past
// NCols (a malformed mapped file) indexes fewer and is never all live here —
// and a structure with no stored column is not.
func allLive[E any](d *sparse.DCSC[E], xw []uint64) bool {
	x := d.ColumnIndex()
	last := len(x.Bits) - 1
	if last < 0 || int(x.Rank[last])+bits.OnesCount64(x.Bits[last]) != len(d.JC) || x.Lo+len(x.Bits) > len(xw) {
		return false
	}
	xw = xw[x.Lo : x.Lo+len(x.Bits)]
	for w, b := range x.Bits {
		if b&^xw[w] != 0 {
			return false
		}
	}
	return true
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

// pushProbeCost is how many pull probes one push probe is worth in the Auto
// cost model. A pull probe is a sequential JC scan step with a bit test — a
// load and a branch the prefetcher hides; a push probe is a frontier bit
// tested against the column bitmap and, on a hit, ranked by popcount before
// the CP load. 4 was measured against the AUX bucket lookup this index
// replaced (3–8× on RMAT and grid workloads; ties go to pull, whose worst
// case is bounded) and is kept so the Auto decisions stay put.
// TestPushProbeCost measures the ratio under the bitmap, the input for
// re-tuning it: it falls with frontier density, so no one constant fits.
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
	// Reach is how many partitions a push superstep looks a frontier vertex
	// up in, on average: the frontier words each layer's push walk scans
	// (pushWords, 64 columns each), summed over every layer in play and
	// divided by the vertex count. A vertex outside a layer's stored column
	// range costs that layer nothing. On a permuted RMAT graph every
	// partition stores columns across the whole id range, so Reach is the
	// partition count; a grid's row partitions store a band of columns each,
	// and Reach is about 1.
	Reach float64
}

// addLayers folds a layered partition set over n vertices into the cost
// model using the LIVE quantities — the edge and column counts the walks
// will actually see, not the base's.
func addLayers[E any](c KernelCosts, layers []sparse.Layered[E], n int) KernelCosts {
	span := 0
	for _, l := range layers {
		c.TotalEdges += int64(l.LiveNNZ())
		c.TotalNZCols += int64(l.LiveNZColumns())
		loW, hiW := pushWords(l)
		span += (hiW - loW) * 64
	}
	if n > 0 {
		c.Reach += float64(span) / float64(n)
	}
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
//  2. the probe rule — the push walk's lookup bill (pushBill: frontier size
//     × Reach, each lookup worth pushProbeCost column-sweep probes) does not
//     exceed the column sweep's fixed per-superstep bill, TotalNZCols.
//
// Rule 1 keeps dense frontiers (PageRank, BFS's middle supersteps) on the
// column sweep; rule 2 keeps mid-size frontiers there when per-vertex
// lookups across the partitions they reach would cost more than one
// sequential sweep of the columns. Both outcomes are scatters driven by
// source columns — this is a choice of how to find the frontier's columns,
// not of direction. The direction change of Beamer-style BFS is the third
// traversal, the row walk, which a Pull superstep of a row-walking program
// (SemiringBoolean, FirstMessageFinal and DstIndependent) takes when
// rowWalkPays. All three fold each destination's messages in ascending
// source id, which is why the choice never shows in the results.
func (c KernelCosts) Choose(mode Mode, frontierSize, frontierEdges int64) Mode {
	if mode != Auto {
		return mode
	}
	if float64(frontierEdges)*DefaultPushThreshold > float64(c.TotalEdges) {
		return Pull
	}
	if c.pushBill(frontierSize) > c.TotalNZCols {
		return Pull
	}
	return Push
}

// pushBill is the probe rule's push side for a frontier of frontierSize
// vertices, in pull-probe units: frontierSize × Reach × pushProbeCost,
// rounded up, so that it exceeds TotalNZCols exactly when the unrounded
// product does.
func (c KernelCosts) pushBill(frontierSize int64) int64 {
	return int64(math.Ceil(float64(frontierSize) * c.Reach * pushProbeCost))
}

// rowWalkGain is the Beamer ratio of the row-walk decision: how many edge
// slots of unsettled rows one frontier edge is worth. The column sweep pays
// a fold — a random read-modify-write of y's mask — for every frontier
// edge, settled destination or not; the row walk pays a frontier
// bit test on a sequentially read source id per slot, and stops at the first
// hit, so it rarely examines all of them.
const rowWalkGain = 14

// rowWalkPays is the Beamer test for one Pull superstep of a row-walking
// program: gather when the frontier's edge work — every edge the column
// sweep would fold — times rowWalkGain exceeds the degree sum of the
// still-unsettled vertices, which bounds the slots a row walk can examine.
// A handful of frontier vertices in a mostly unsettled graph keeps the
// sweep; BFS's middle supersteps, and every superstep once most of the
// graph is settled, gather.
func rowWalkPays(frontierEdges, unsettledEdges int64) bool {
	return frontierEdges*rowWalkGain > unsettledEdges
}
