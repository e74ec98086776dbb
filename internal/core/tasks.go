package core

import (
	"sync/atomic"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// This file is the nnz-weighted task-shaping half of the scheduler work:
// turning a run's partition list into multiply-phase task lists whose units
// carry roughly equal edge work, so one hub-heavy partition no longer
// serializes a pull superstep while the other workers idle.
//
// Shaping preserves the engine's bit-identity contract. A partition is only
// ever split by destination row, on 64-aligned boundaries: each output row
// (and each output mask word) belongs to exactly one task, so tasks still
// write disjoint ranges of y without synchronization, and within a task the
// kernels visit columns in ascending id with each destination's fold order
// unchanged — only task *boundaries* move, never the per-destination fold
// sequence. (Splitting by column range instead would both race on shared
// destination rows and recombine partial folds, which float reduction
// orders forbid.)
//
// The same preparation serves the scalar engine, the block engine and the
// single-shot SpMV: runPlan pins a run's layers, weighs them once, and runs
// each multiply phase over the resulting task lists.

// runPlan is one run's multiply-phase preparation: per scatter direction,
// the pinned base+delta layers and their task lists; plus the Auto cost
// model's structure side and per-vertex degrees. It depends only on the
// pinned structures and the run config, so it is built once per run.
type runPlan[E any] struct {
	dirs [2]dirPlan[E] // out-edge scatter, in-edge scatter; unused ones stay empty
	// costs feeds KernelCosts.Choose; zero unless the run is in Auto mode.
	costs KernelCosts
	// sendDegs[v] is v's degree as a sender over the directions in play —
	// the SendMessage phase sums it over the senders, one array load each,
	// into the frontier's edge work. Nil unless a decision needs that sum:
	// Auto's, or the row walk's under configured Pull, so other fixed-mode
	// runs skip the accounting entirely.
	sendDegs []uint32
	// recvDegs[v] is v's degree as a receiver — the length of its row in
	// the layers, which the row walk scans. Nil unless the run, scalar or
	// block, can take the row walk: the program asked for it and scatters one
	// way, the mode is not forced Push and some layer has no pending delta.
	recvDegs []uint32
}

type dirPlan[E any] struct {
	layers []sparse.Layered[E]
	tasks  taskPlan
}

// planRun pins g's traversal structures for the directions dir names and
// prepares their task lists. Whatever the graph's owning store publishes
// later, the run keeps iterating exactly this epoch's edge set. Each
// layer's live edge weight — O(delta columns) lookups on an overlay — is
// computed once here and shared by the task shaper and the cost model.
// rowWalk says the program's sink can gather (see rowSink).
func planRun[V, E any](g *graph.Graph[V, E], dir graph.Direction, cfg Config, rowWalk bool) runPlan[E] {
	var rp runPlan[E]
	if dir&graph.Out != 0 {
		rp.dirs[0].layers = g.OutLayers()
	}
	if dir&graph.In != 0 {
		rp.dirs[1].layers = g.InLayers()
	}
	plain := false // some layer has no pending delta
	for i := range rp.dirs {
		d := &rp.dirs[i]
		weights := liveWeights(d.layers)
		d.tasks = shapeTasks(d.layers, weights, cfg.Threads)
		if cfg.Mode == Auto {
			rp.costs = addLayers(rp.costs, d.layers, weights, int(g.NumVertices()))
		}
		for _, l := range d.layers {
			plain = plain || l.Delta == nil
		}
	}
	// A program scattering both ways keeps the column walks: its two
	// directions fold into one y, and a gather per direction would fold two
	// first messages where the promise covers one.
	rowWalk = rowWalk && plain && cfg.Mode != Push && dir&graph.Both != graph.Both
	if cfg.Mode == Auto || rowWalk {
		rp.sendDegs = degreesAlong(g, dir)
	}
	if rowWalk {
		// An out-edge scatter lands on its receivers' in-edges, and back.
		rp.recvDegs = degreesAlong(g, dir^graph.Both)
	}
	return rp
}

// degreesAlong returns each vertex's edge count along the directions of dir.
func degreesAlong[V, E any](g *graph.Graph[V, E], dir graph.Direction) []uint32 {
	switch dir & graph.Both {
	case graph.Out:
		return g.OutDegrees()
	case graph.In:
		return g.InDegrees()
	}
	outDegs, inDegs := g.OutDegrees(), g.InDegrees()
	degs := make([]uint32, len(outDegs))
	for v := range degs {
		degs[v] = outDegs[v] + inDegs[v]
	}
	return degs
}

// multiplyPhase runs one superstep's generalized multiply (Algorithm 1): every
// task of every direction in play through the walk the superstep chose — the
// column walk mode selects, or, with rows non-nil, the row walk on every
// layer that can take it — against the frontier occupancy words xw, folding
// into sink. Each task owns a disjoint 64-aligned output row range, so the
// sink's output needs no synchronization.
func (rp *runPlan[E]) multiplyPhase(ex execCfg, stop *atomic.Int32, mode Mode, xw []uint64, sink colSink[E], rows rowSink[E], locals []localStats) {
	for _, d := range rp.dirs {
		tasks := d.tasks.pick(mode)
		parallelFor(ex, len(tasks), stop, func(ti, w int) {
			t := tasks[ti]
			multiply(mode, d.layers[t.layer], xw, t.rlo, t.rhi, sink, rows, &locals[w])
		})
	}
}

// liveWeights returns each layer's live edge count under its overlay.
func liveWeights[E any](layers []sparse.Layered[E]) []int {
	weights := make([]int, len(layers))
	for i, l := range layers {
		weights[i] = l.LiveNNZ()
	}
	return weights
}

// spmvTask is one unit of multiply-phase work: a partition (by layer
// index) and a destination-row range. Whole-partition tasks use the full
// range sentinel rlo=0, rhi=^uint32(0).
type spmvTask struct {
	layer    int32
	rlo, rhi uint32
}

// taskPlan is one direction's precomputed multiply-phase task lists.
type taskPlan struct {
	// whole is partition-granular: one task per layer, in layer order.
	whole []spmvTask
	// shaped is the nnz-weighted list: heavy partitions are split into
	// 64-aligned destination-row sub-ranges of roughly equal edge weight;
	// light partitions stay whole.
	shaped []spmvTask
}

const (
	// shapeTasksPerWorker sets the shaping target: about this many tasks
	// per worker, enough slack for stealing to absorb skew without
	// shattering the sweep into cache-hostile crumbs.
	shapeTasksPerWorker = 4
	// shapeMinGrain floors the per-task edge weight: below this the extra
	// dispatch and per-column row search cost more than the imbalance
	// they could fix.
	shapeMinGrain = 4096
	// shapeMaxSplit caps the sub-tasks cut from one partition.
	shapeMaxSplit = 64
	// shapeSweepCost is the column-sweep budget divisor: a partition with
	// c live columns and w live edges splits at most w/(shapeSweepCost·c)
	// ways, charging each added sub-task for the per-column probe it
	// re-pays across the whole column list.
	shapeSweepCost = 4
)

// shapeTasks builds the task plan for one direction's layers from their
// live edge weights (liveWeights). The grain is total live weight over
// workers × shapeTasksPerWorker (floored at shapeMinGrain); partitions
// above twice the grain are split at destination-row boundaries chosen by
// the BASE's per-row nnz weight — the same balance-and-64-align cut
// PartitionRows applies at build time, here at sub-partition scale. An
// overlay is cut on its base's boundaries too: any 64-aligned cut is
// correct, and a delta small enough to have escaped compaction only
// perturbs the balance.
//
// The plan depends only on the pinned structures and the run config, so
// repeated runs shape identically — engine tallies that count per-task
// sweeps (ColumnsProbed) stay deterministic per configuration.
func shapeTasks[E any](layers []sparse.Layered[E], weights []int, workers int) taskPlan {
	plan := taskPlan{whole: make([]spmvTask, len(layers))}
	for i := range plan.whole {
		plan.whole[i] = spmvTask{layer: int32(i), rhi: ^uint32(0)}
	}
	plan.shaped = plan.whole
	if workers <= 1 || len(layers) == 0 {
		return plan
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	grain := total / (workers * shapeTasksPerWorker)
	if grain < shapeMinGrain {
		grain = shapeMinGrain
	}
	shaped := make([]spmvTask, 0, len(layers))
	split := false
	for i, l := range layers {
		w := weights[i]
		if w <= 2*grain {
			shaped = append(shaped, plan.whole[i])
			continue
		}
		part := l.Base
		s := w / grain
		if s > shapeMaxSplit {
			s = shapeMaxSplit
		}
		// Every sub-task re-sweeps the partition's whole stored-column list
		// (both layers) — a frontier probe and a row-range check per column
		// — so splitting an s-way partition adds (s-1)·columns sweep steps
		// on top of the unchanged edge work. Cap s so that bill stays a
		// small fraction of the edge work it buys balance for: column-rich
		// hypersparse partitions (few edges per live column) stay coarse,
		// edge-dense ones split freely.
		c := part.NZColumns()
		if l.Delta != nil {
			c += l.Delta.NZColumns()
		}
		if c > 0 && s > w/(shapeSweepCost*c) {
			s = w / (shapeSweepCost * c)
		}
		// 64-aligned boundaries bound the useful split count: sub-ranges
		// share no output mask words only at that granularity.
		if rows := int(part.RowHi-part.RowLo) / 64; s > rows {
			s = rows
		}
		if s < 2 {
			shaped = append(shaped, plan.whole[i])
			continue
		}
		bounds := part.SplitBounds(s)
		for b := 0; b < s; b++ {
			lo, hi := bounds[b], bounds[b+1]
			if lo >= hi {
				continue
			}
			shaped = append(shaped, spmvTask{layer: int32(i), rlo: lo, rhi: hi})
			split = true
		}
	}
	if split {
		plan.shaped = shaped
	}
	return plan
}

// pick selects one superstep's task list. Shaped tasks serve pull
// supersteps: the column-sweep bill is fixed, so cutting heavy partitions
// buys balance for a cheap per-column row search. Push supersteps stay
// partition-granular — push work is frontier-proportional, and splitting
// would multiply the per-frontier-vertex probe bill by the split factor
// (the adaptive-grain rule: sparse-frontier supersteps must not shatter).
func (tp *taskPlan) pick(mode Mode) []spmvTask {
	if mode == Push {
		return tp.whole
	}
	return tp.shaped
}
