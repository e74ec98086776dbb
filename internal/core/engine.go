package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"graphmat/internal/bitvec"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// Run executes program p on graph g until convergence or the configured
// iteration cap, returning run statistics. It implements Algorithm 2 of the
// paper: each superstep builds a sparse message vector from the active
// vertices (SendMessage), multiplies it against the partitioned adjacency
// structure with the generalized SpMV (ProcessMessage + Reduce, Algorithm 1),
// applies the reduced values (Apply), and activates the vertices whose state
// changed. The run mutates g's vertex properties and active set.
//
// Run is RunContext without a context: it cannot be canceled, so the only
// error is a rejected configuration (see Config.Vector). Callers that need
// cancellation, deadlines or per-superstep observation use RunContext.
func Run[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], p P, cfg Config) (Stats, error) {
	return RunContext[V, E, M, R, P](context.Background(), g, p, cfg, nil)
}

// localStats is one worker's tally, padded to a cache line so workers never
// share one. Frontier-size counts (messages sent, distinct senders, next
// actives) are NOT tallied here: the occupancy masks already hold them, so
// the engines read them after each phase with one popcount word sweep
// (bitvec.Count through the kernels backend) instead of bumping a counter
// per Set in the hot loops.
type localStats struct {
	edges   int64
	probes  int64
	applies int64
	// flat is the part of edges the pull walk folded through a sink's
	// foldFlat (fully-live column batches).
	flat int64
	// degSum accumulates the traversal-structure degrees of the vertices
	// that sent a message — the frontier's edge work, the numerator of the
	// Auto push/pull decision and of the row-walk test. Only tallied when
	// the run makes one of those decisions (runPlan.sendDegs).
	degSum int64
	// settled accumulates the receiving-side degrees of the vertices an
	// apply phase settled — what the row-walk test's count of unsettled
	// edge slots shrinks by. Only tallied when the run can take the row
	// walk (runPlan.recvDegs).
	settled int64
	_       [16]byte
}

func (s *Stats) absorb(locals []localStats) (applies, degSum, settled int64) {
	for i := range locals {
		s.EdgesProcessed += locals[i].edges
		s.ColumnsProbed += locals[i].probes
		s.FlatEdges += locals[i].flat
		s.Applies += locals[i].applies
		applies += locals[i].applies
		degSum += locals[i].degSum
		settled += locals[i].settled
		locals[i] = localStats{}
	}
	return applies, degSum, settled
}

// chunkBounds splits [0, n) into at most k contiguous chunks whose interior
// boundaries are 64-aligned, so concurrent writers of chunk-local bitvector
// ranges never share a word.
func chunkBounds(n, k int) []uint32 {
	if k < 1 {
		k = 1
	}
	step := (n + k - 1) / k
	step = (step + 63) &^ 63
	if step == 0 {
		step = 64
	}
	bounds := []uint32{0}
	for b := step; b < n; b += step {
		bounds = append(bounds, uint32(b))
	}
	bounds = append(bounds, uint32(n))
	return bounds
}

// execCfg carries one run's scheduling parameters into the phase dispatch
// helper: worker count, schedule, and the per-run tally the scheduler work
// is accounted to.
type execCfg struct {
	workers int
	sc      Schedule
	tally   *sched.Tally
}

func (c Config) exec(t *sched.Tally) execCfg {
	return execCfg{workers: c.Threads, sc: c.Schedule, tally: t}
}

// schedStats converts a run tally into the Stats view.
func (ex execCfg) schedStats() SchedStats {
	s := SchedStats{Workers: ex.workers}
	if ex.tally != nil {
		s.Tasks = ex.tally.Tasks.Load()
		s.Steals = ex.tally.Steals.Load()
		s.BusyNS = ex.tally.BusyNS.Load()
	}
	return s
}

// parallelFor runs fn(task, worker) over tasks [0, ntasks) on up to
// ex.workers executors of the persistent shared worker pool: parked workers
// are woken, not spawned, with Dynamic runs rebalanced by work stealing and
// Static runs pinned to their initial contiguous spans. A phase with one
// worker or one task runs inline on the caller through the same pool, so
// its work still reaches the run tally and the pool counters. stop, when
// non-nil, is polled before each task: once it goes nonzero the remaining
// tasks are abandoned, which is how a cancellation aborts a multi-second
// SpMV without waiting for the superstep to finish.
func parallelFor(ex execCfg, ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	sched.Shared(min(ex.workers, ntasks)).RunOptions(ntasks, stop, sched.Options{NoSteal: ex.sc == Static, Tally: ex.tally}, fn)
}

// phaseSet is what an engine front-end — scalar (runScalar), block (runBlock)
// or the boxed ablation (runBoxed) — contributes to the one superstep loop:
// its frontier and its three phase bodies, closed once per run over the
// front-end's own monomorphised SendMessage / fold / Apply code. The loop is
// not generic and calls each body once per superstep, so no per-vertex or
// per-edge call goes through it.
type phaseSet struct {
	// active is the frontier's vertex occupancy: counted entering a
	// superstep, cleared before apply and counted again after it.
	active *bitvec.Vector
	// mode is the configured kernel mode and costs the structure side of its
	// Auto resolution. The boxed ablation predates the push kernel: it sets
	// Pull whatever Config.Mode says, and leaves costs zero.
	mode  Mode
	costs KernelCosts
	// send clears the message vector, runs SendMessage over the active set
	// (Algorithm 2 lines 3-5) and returns the messages produced and the
	// frontier size the push probe bill scales with. Both come off the
	// occupancy masks after the phase — one popcount sweep, no per-Set
	// counters. They are the same number for a scalar vector; a block
	// bills its distinct sender vertices, since one column lookup serves
	// all of a vertex's source columns. Under Auto, send also tallies the
	// senders' degrees into localStats.degSum.
	send func() (sent, senders int64)
	// unsettledEdges is nil unless the front-end can run the row walk (the
	// scalar or block front-end of a FirstMessageFinal program, see
	// runPlan.recvDegs). It returns the receiving-side degree sum of the
	// vertices still unsettled — counted once per unsettled column in a
	// block, as degSum counts a sender once per message — which bounds the
	// edge slots a row walk could examine, from one chunked pass over the
	// properties. The loop calls it once, on the
	// first superstep that resolves to Pull, and keeps the sum current from
	// what each later apply phase reports settled (localStats.settled): a
	// run that never pulls never pays the pass, and one that always does
	// pays no extra dispatch per superstep.
	unsettledEdges func() int64
	// multiply clears the reduction vector and runs the generalized
	// multiply (Algorithm 1) in the resolved mode — by the row walk when
	// rowWalk is set, which the loop only does for Pull.
	multiply func(mode Mode, rowWalk bool)
	// apply runs Apply over every reduced value, re-activating the vertices
	// whose state changed (Algorithm 2 lines 7-13).
	apply func()
}

// driver is one run's scaffolding — stop machinery, phase dispatch, vertex
// chunks and per-worker tallies — shared by the superstep loop and the
// phase bodies it calls.
type driver struct {
	cfg    Config
	ctrl   *controller
	stop   *atomic.Int32
	tally  sched.Tally
	ex     execCfg
	chunks []uint32
	locals []localStats
}

func newDriver(cfg Config, ctrl *controller, n int) *driver {
	d := &driver{
		cfg: cfg, ctrl: ctrl, stop: ctrl.flag(),
		chunks: chunkBounds(n, cfg.Threads*4),
		locals: make([]localStats, cfg.Threads),
	}
	d.ex = cfg.exec(&d.tally)
	return d
}

// overChunks returns a phase body running fn over every vertex chunk in
// parallel. Chunks own disjoint 64-aligned vertex ranges, so fn may write
// chunk-local mask words and lazily zeroed rows without synchronization.
func (d *driver) overChunks(fn func(lo, hi uint32, st *localStats)) func() {
	task := func(c, w int) { fn(d.chunks[c], d.chunks[c+1], &d.locals[w]) }
	return func() { parallelFor(d.ex, len(d.chunks)-1, d.stop, task) }
}

// sumChunks runs fn over every vertex chunk in parallel and returns the sum
// of its results.
func (d *driver) sumChunks(fn func(lo, hi uint32) int64) int64 {
	var total atomic.Int64
	parallelFor(d.ex, len(d.chunks)-1, d.stop, func(c, _ int) { total.Add(fn(d.chunks[c], d.chunks[c+1])) })
	return total.Load()
}

// run is the BSP superstep loop (Algorithm 2), the only one: iteration cap,
// stop checks, clocks, Stats, the per-superstep direction choice, the
// observer report and the convergence test, around ps's phases.
func (d *driver) run(ps phaseSet) (stats Stats, err error) {
	defer func() { stats.Sched = d.ex.schedStats() }()
	halt := func(r StopReason) (Stats, error) {
		stats.Reason = r
		return stats, r.err()
	}
	maxIter := d.cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = math.MaxInt
	}
	runStart := time.Now() //lint:graphmat bannedcalls one clock read per run, off the per-edge path

	// unsettled is the row-walk test's count of unsettled edge slots
	// (phaseSet.unsettledEdges); negative until a superstep first needs it.
	unsettled := int64(-1)

	stats.Reason = MaxIterations // what remains if the loop runs out
	for iter := 0; iter < maxIter; iter++ {
		if r, ok := d.ctrl.stopped(); ok {
			return halt(r)
		}
		stepStart := time.Now() //lint:graphmat bannedcalls one clock read per superstep, off the per-edge path
		frontier := int64(ps.active.Count())
		stats.ActiveSum += frontier
		stats.Iterations++

		sent, senders := ps.send()
		stats.MessagesSent += sent
		_, degSum, _ := stats.absorb(d.locals)

		// Per-superstep traversal choice: resolve Auto from the frontier's
		// size and edge work against the structure-side costs, then let a
		// Pull superstep gather by rows when the front-end can and the
		// frontier's edge work outweighs what is left unsettled.
		mode := ps.costs.Choose(ps.mode, senders, degSum)
		rowWalk := false
		if sent > 0 && mode == Pull && ps.unsettledEdges != nil {
			if unsettled < 0 {
				unsettled = ps.unsettledEdges()
			}
			rowWalk = rowWalkPays(degSum, unsettled)
		}

		var applies, nactive int64
		if sent > 0 {
			if mode == Push {
				stats.PushSupersteps++
			} else {
				stats.PullSupersteps++
			}
			if rowWalk {
				stats.RowSupersteps++
			}
			ps.multiply(mode, rowWalk)

			// A stop raised mid-multiply must not Apply a partially reduced
			// y: return the partial tallies without touching vertex state
			// further.
			if r, ok := d.ctrl.stopped(); ok {
				stats.absorb(d.locals)
				return halt(r)
			}

			ps.active.Reset()
			ps.apply()
			var settled int64
			applies, _, settled = stats.absorb(d.locals)
			if unsettled >= 0 {
				unsettled -= settled
			}
			nactive = int64(ps.active.Count())
		}
		if r, ok := d.ctrl.stopped(); ok {
			return halt(r)
		}
		if d.ctrl.observer != nil {
			err := d.ctrl.observer(IterationInfo{
				Iteration:  iter + 1,
				Active:     frontier,
				Sent:       sent,
				Applies:    applies,
				NextActive: nactive,
				Mode:       mode,
				RowWalk:    rowWalk,
				Elapsed:    time.Since(stepStart), //lint:graphmat bannedcalls per-superstep stats, two reads per superstep
				Total:      time.Since(runStart),
			})
			if err != nil {
				stats.Reason = StoppedByObserver
				return stats, err
			}
		}
		if sent == 0 || nactive == 0 {
			stats.Reason = Converged
			break
		}
	}
	return stats, nil
}

// runScalar is the width-1 front-end: a bitvector message vector, the scalar
// fold sinks, one property and one active bit per vertex. The scalar engine
// (RunContext) runs it over the graph's own vertex state and its workspace;
// the block engine (runBlock) runs it over a one-column BlockState and
// BlockWorkspace, whose arrays are exactly these — so a vector is the k=1
// block in the code as in the algebra, and width is decided here only.
func runScalar[V, E, M, R any, P Program[V, E, M, R]](
	g *graph.Graph[V, E], p P, cfg Config, ctrl *controller,
	props []V, active *bitvec.Vector, x *sparse.Vector[M], y *sparse.Vector[R],
) (Stats, error) {
	d := newDriver(cfg, ctrl, int(g.NumVertices()))

	xw := x.Mask().Words()
	sink := scalarSink(p, x, props, y)
	rows, _ := sink.(rowSink[E])
	rp := planRun(g, p.Direction(), cfg, rows != nil)
	sendDegs, recvDegs := rp.sendDegs, rp.recvDegs
	settling, _ := any(p).(FirstMessageFinal[V]) // non-nil whenever recvDegs is

	send := d.overChunks(func(lo, hi uint32, st *localStats) {
		active.IterateRange(lo, hi, func(v uint32) {
			if m, ok := p.SendMessage(v, props[v]); ok {
				x.Set(v, m)
				if sendDegs != nil {
					st.degSum += int64(sendDegs[v])
				}
			}
		})
	})
	ps := phaseSet{
		active: active, mode: cfg.Mode, costs: rp.costs,
		send: func() (int64, int64) {
			x.Reset()
			send()
			sent := int64(x.NNZ())
			return sent, sent
		},
		multiply: func(mode Mode, rowWalk bool) {
			y.Reset()
			var gather rowSink[E] // nil: the column walk of mode
			if rowWalk {
				gather = rows
			}
			rp.multiplyPhase(d.ex, d.stop, mode, xw, sink, gather, d.locals)
		},
		apply: d.overChunks(func(lo, hi uint32, st *localStats) {
			y.IterateRange(lo, hi, func(v uint32, r R) {
				st.applies++
				if p.Apply(r, v, &props[v]) {
					active.Set(v)
					// Only an unsettled vertex activates (the mask promise),
					// so one that did and is settled now was settled by this
					// Apply.
					if recvDegs != nil && !settling.Unsettled(props[v]) {
						st.settled += int64(recvDegs[v])
					}
				}
			})
		}),
	}
	if recvDegs != nil {
		ps.unsettledEdges = func() int64 {
			return d.sumChunks(func(lo, hi uint32) (deg int64) {
				degs := recvDegs[lo:hi]
				for v, prop := range props[lo:hi] {
					if settling.Unsettled(prop) {
						deg += int64(degs[v])
					}
				}
				return deg
			})
		}
	}
	return d.run(ps)
}
