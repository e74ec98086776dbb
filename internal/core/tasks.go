package core

import (
	"fmt"
	"sync/atomic"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// This file turns a run's pinned partitions into multiply-phase tasks: one
// task per partition of each direction in play. The graph's row partitions
// are the unit of parallel work. PartitionRows balances them by nonzeros at
// build time, with 64-aligned boundaries, and the default count is 8 per
// worker, enough slack for the scheduler's stealing to absorb what skew the
// build balance leaves (the paper's load-balancing recipe, §4.5 item 4). Each
// task owns its partition's output rows, so tasks write disjoint ranges of y
// without synchronization, and within a task the walks visit columns in
// ascending id: the per-destination fold order never depends on the worker
// count or the partition count. A graph with fewer partitions than workers
// leaves workers idle in the multiply; build it with more (Options.Partitions).
//
// The same preparation serves the scalar engine, the block engine and the
// single-shot SpMV: runPlan pins a run's layers once and runs each multiply
// phase over them.

// runPlan is one run's multiply-phase preparation: per scatter direction,
// the pinned base+delta layers; plus the Auto cost model's structure side and
// per-vertex degrees. It depends only on the pinned structures and the run
// config, so it is built once per run.
type runPlan[E any] struct {
	dirs [2][]sparse.Layered[E] // out-edge scatter, in-edge scatter; unused ones stay empty
	// costs feeds KernelCosts.Choose; zero unless the run is in Auto mode.
	costs KernelCosts
	// sendDegs[v] is v's degree as a sender over the directions in play —
	// the SendMessage phase sums it over the senders, one array load each,
	// into the frontier's edge work. Nil unless a decision needs that sum:
	// Auto's, or the row walk's under configured Pull, so other fixed-mode
	// runs skip the accounting entirely.
	sendDegs []uint32
	// recvDegs[v] is v's degree as a receiver — the length of its live row
	// in the layers, which the row walk scans, pending updates included. Nil
	// unless the run, at any width, can take the row walk: its sink is a
	// mask sink, the program scatters one way, and the mode is not forced
	// Push.
	recvDegs []uint32
	// mul is what the multiply phase's task reads, set before each
	// dispatch, and mulTask that task, bound once per run so that a
	// superstep's dispatch allocates no closure.
	mul struct {
		mode   Mode
		layers []sparse.Layered[E]
		xw     []uint64
		sink   colSink[E]
		rows   rowSink[E]
		locals []localStats
	}
	mulTask func(ti, w int)
}

// checkDirections reports a direction dir names that g was built without: a
// graph has exactly the traversal structures its Options.Directions built,
// so a program scattering any other way has nothing to walk. Every run and
// SpMV makes this one check before it pins anything.
func checkDirections[E any](g *graph.Graph[E], dir graph.Direction) error {
	var missing string
	switch {
	case dir&graph.Out != 0 && g.OutLayers() == nil:
		missing = "Out"
	case dir&graph.In != 0 && g.InLayers() == nil:
		missing = "In"
	default:
		return nil
	}
	return fmt.Errorf("core: the program scatters along Direction %s, but the graph was built without it (Options.Directions)", missing)
}

// planRun pins g's traversal structures for the directions dir names, all
// of which g has (checkDirections). Whatever the graph's owning store
// publishes later, the run keeps iterating exactly this epoch's edge set.
// rowWalk says the program's sink can gather (see rowSink); every layer can
// then take the row walk, a layer with a pending delta through its live rows
// (walkRows), so whether the run may gather depends on the program and the
// mode alone, never on which layers carry updates.
func planRun[E any](g *graph.Graph[E], dir graph.Direction, cfg Config, rowWalk bool) runPlan[E] {
	var rp runPlan[E]
	if dir&graph.Out != 0 {
		rp.dirs[0] = g.OutLayers()
	}
	if dir&graph.In != 0 {
		rp.dirs[1] = g.InLayers()
	}
	if cfg.Mode == Auto {
		for _, layers := range rp.dirs {
			rp.costs = addLayers(rp.costs, layers, int(g.NumVertices()))
		}
	}
	// A program scattering both ways keeps the column walks: its two
	// directions fold into one y, and a gather per direction would fold two
	// first messages where the promise covers one.
	rowWalk = rowWalk && cfg.Mode != Push && dir&graph.Both != graph.Both
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
func degreesAlong[E any](g *graph.Graph[E], dir graph.Direction) []uint32 {
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
// partition of every direction in play, one task each, through the walk the
// superstep chose — the column walk mode selects, or, with rows non-nil, the
// row walk on every layer — against the frontier occupancy
// words xw, folding into sink. Each partition owns a disjoint 64-aligned
// output row range, so the sink's output needs no synchronization.
func (rp *runPlan[E]) multiplyPhase(ex execCfg, stop *atomic.Int32, mode Mode, xw []uint64, sink colSink[E], rows rowSink[E], locals []localStats) {
	m := &rp.mul
	m.mode, m.xw, m.sink, m.rows, m.locals = mode, xw, sink, rows, locals
	if rp.mulTask == nil {
		rp.mulTask = func(ti, w int) { multiply(m.mode, m.layers[ti], m.xw, m.sink, m.rows, &m.locals[w]) }
	}
	for _, layers := range rp.dirs {
		m.layers = layers
		parallelFor(ex, len(layers), stop, rp.mulTask)
	}
}
