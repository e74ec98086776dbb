package core

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"graphmat/internal/bitvec"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
)

// Run executes program p on graph g over the run's vertex state st until
// convergence or the configured iteration cap, returning run statistics. It
// implements Algorithm 2 of the paper: each superstep builds a sparse
// message vector from the active vertices (SendMessage), multiplies it
// against the partitioned adjacency structure with the generalized SpMV
// (ProcessMessage + Reduce, Algorithm 1), applies the reduced values (Apply),
// and activates the vertices whose state changed. The run mutates st's
// properties and active set; g is only read.
//
// Run is RunContext without a context or workspace: it cannot be canceled,
// and its errors are RunContext's validation errors, returned before any
// superstep. Callers that need cancellation, deadlines or per-superstep
// observation use RunContext.
func Run[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[E], p P, st *BlockState[V], cfg Config) (Stats, error) {
	return RunContext[V, E, M, R, P](context.Background(), g, p, st, cfg, nil)
}

// localStats is one worker's scratch: its tallies and its column buffer,
// padded to a cache line so workers never share one. Frontier-size counts
// (messages sent, distinct senders, next actives) are NOT tallied here: the
// occupancy masks already hold them, so the engines read them after each
// phase with one popcount word sweep (bitvec.Count through the kernels
// backend) instead of bumping a counter per Set in the hot loops.
type localStats struct {
	tallies
	// buf is the column buffer walkPull and walkPush gather found columns
	// into before each sink fold. It lives here, one per worker, because a
	// walk's own array escapes through the sink interface: a buffer per
	// walk call would be an allocation per partition per superstep.
	buf [walkBatch]colRef
	_   [16]byte
}

// tallies is the part of localStats a phase's absorb reads and resets.
type tallies struct {
	edges   int64
	probes  int64
	applies int64
	// flat is the part of edges the pull walk folded through a sink's
	// foldFlat (fully-live partitions and column batches).
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
}

func (s *Stats) absorb(locals []localStats) (applies, degSum, settled int64) {
	for i := range locals {
		t := &locals[i].tallies
		s.EdgesProcessed += t.edges
		s.ColumnsProbed += t.probes
		s.FlatEdges += t.flat
		s.Applies += t.applies
		applies += t.applies
		degSum += t.degSum
		settled += t.settled
		*t = tallies{}
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

// chunkWords returns the mask words [wlo, whi) holding the bits of vertex
// chunk [lo, hi): lo is 64-aligned, and hi is too unless it is the vertex
// count, whose tail bits no mask sets. It is generic only so that it inlines
// where the engine is instantiated; T is always uint32.
func chunkWords[T ~uint32](lo, hi T) (wlo, whi int) {
	return int(lo >> 6), (int(hi) + 63) >> 6
}

// execCfg carries one run's scheduling parameters into the phase dispatch
// helper: worker count, the shared pool of that many slots, resolved once
// per run, and the per-run tally the scheduler work is accounted to.
type execCfg struct {
	workers int
	pool    *sched.Pool
	tally   *sched.Tally
}

func (c Config) exec(t *sched.Tally) execCfg {
	return execCfg{workers: c.Threads, pool: sched.Shared(c.Threads), tally: t}
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

// parallelFor runs fn(task, worker) over tasks [0, ntasks) on the run's own
// shared pool, the one of ex.workers slots, on at most ntasks executors
// rebalanced by work stealing. Inside a run's superstep loop the pool is
// held (driver.run), so its workers spin between phases rather than park,
// and a phase starts without a wake; elsewhere (one-shot SpMV, the phases
// before the loop) parked workers are woken. A phase with one worker or one
// task runs inline on the caller through the same pool, so its work still
// reaches the run tally and that pool's counters; a phase with no tasks
// touches no pool. stop, when non-nil, is polled before each task: once it
// goes nonzero the remaining tasks are abandoned, which is how a
// cancellation aborts a multi-second SpMV without waiting for the superstep
// to finish.
func parallelFor(ex execCfg, ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	if ntasks == 0 {
		return
	}
	ex.pool.RunOptions(ntasks, stop, sched.Options{Tally: ex.tally}, fn)
}

// holdPool opens a run's hold on its pool (sched.Pool.Hold); a test hook.
var holdPool = (*sched.Pool).Hold

// phaseSet is what an engine front-end — runPhases, the one for every width,
// or the boxed ablation (runBoxed) — contributes to the one superstep loop:
// its frontier and its phase bodies, closed once per run over the
// front-end's own generic SendMessage / fold / Apply code. The loop is
// not generic and calls each body at most once per superstep, so no
// per-vertex or per-edge call goes through it. A runPhases superstep after a
// run's first is two phases, multiply and apply: the apply before it already
// sent its messages. The boxed ablation runs all three every superstep.
type phaseSet struct {
	// active is the frontier's vertex occupancy: counted entering a run's
	// first superstep, cleared before apply and counted after it, which is
	// the next superstep's frontier.
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
	// counters. They are the same number at k = 1; a wider block bills its
	// distinct sender vertices, since one column lookup serves all of a
	// vertex's source columns. Under Auto, send also tallies the senders'
	// degrees into localStats.degSum.
	send func() (sent, senders int64)
	// messages returns what send returns, for the message vector a fused
	// apply left behind. It is nil for a front-end whose apply never sends
	// (the boxed ablation) and for a run with reactivate set, whose frontier
	// changes after apply.
	messages func() (sent, senders int64)
	// reactivate is nil unless the program declares AllVerticesActive
	// (BlockState.reactivation). The loop calls it after each superstep that
	// does not end the run — after the observer report and the convergence
	// test — and it returns the re-activated frontier's vertex count.
	reactivate func() int64
	// unsettledEdges is nil unless the front-end can run the row walk
	// (runPhases with a mask sink, see runPlan.recvDegs). It
	// returns the receiving-side degree sum of the vertices still unsettled
	// — counted once per unsettled column, as degSum counts a sender once
	// per message — which bounds the edge slots a row walk could examine,
	// from one chunked pass over the sink's settled mask. The loop calls it
	// once, on the first superstep that resolves to Pull, and keeps the sum
	// current from what each later apply phase reports settled
	// (localStats.settled): a run that never pulls never pays the pass, and
	// one that always does pays no extra dispatch per superstep.
	unsettledEdges func() int64
	// multiply clears the reduction vector and runs the generalized
	// multiply (Algorithm 1) in the resolved mode — by the row walk when
	// rowWalk is set, which the loop only does for Pull.
	multiply func(mode Mode, rowWalk bool)
	// apply runs Apply over every reduced value, re-activating the vertices
	// whose state changed (Algorithm 2 lines 7-13). With sendNext it is also
	// the next superstep's send: it clears the message vector and, right
	// after a row's Apply calls, runs the send step on the columns they
	// activated, while the properties they wrote are in cache. The loop sets
	// sendNext only when messages is non-nil and another superstep will run,
	// so no run sends past its last superstep.
	apply func(sendNext bool)
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
// observer report, the convergence test and an AllVerticesActive program's
// re-activation, around ps's phases. It holds the run's pool for the whole
// loop and releases it on every return.
func (d *driver) run(ps phaseSet) (stats Stats, err error) {
	defer func() { stats.Sched = d.ex.schedStats() }()
	// Keep the pool's workers hot from the first superstep to the last:
	// each superstep is two or three dispatches, and a park and wake
	// between them costs more than a small superstep's work.
	defer holdPool(d.ex.pool)()
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
	// frontier is the active set entering a superstep: counted here for the
	// first, then the previous superstep's count after its apply, or after
	// its re-activation (phaseSet.reactivate).
	frontier := int64(ps.active.Count())
	// sendNext is whether the previous apply sent this superstep's messages,
	// and nextDegSum the frontier edge work it tallied doing so.
	sendNext, nextDegSum := false, int64(0)

	stats.Reason = MaxIterations // what remains if the loop runs out
	for iter := 0; iter < maxIter; iter++ {
		if r, ok := d.ctrl.stopped(); ok {
			return halt(r)
		}
		stepStart := time.Now() //lint:graphmat bannedcalls one clock read per superstep, off the per-edge path
		stats.ActiveSum += frontier
		stats.Iterations++

		var sent, senders, degSum int64
		if sendNext {
			sent, senders = ps.messages()
			degSum = nextDegSum
		} else {
			sent, senders = ps.send()
			_, degSum, _ = stats.absorb(d.locals)
		}
		stats.MessagesSent += sent

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
			sendNext = ps.messages != nil && iter+1 < maxIter
			ps.apply(sendNext)
			var settled int64
			applies, nextDegSum, settled = stats.absorb(d.locals)
			if unsettled >= 0 {
				unsettled -= settled
			}
			nactive = int64(ps.active.Count())
		}
		if r, ok := d.ctrl.stopped(); ok {
			return halt(r)
		}
		if d.ctrl.observer != nil {
			info := IterationInfo{
				Iteration:  iter + 1,
				Active:     frontier,
				Sent:       sent,
				Applies:    applies,
				NextActive: nactive,
				Mode:       mode,
				RowWalk:    rowWalk,
				Elapsed:    time.Since(stepStart), //lint:graphmat bannedcalls per-superstep stats, two reads per superstep
				Total:      time.Since(runStart),
			}
			if ps.mode == Auto {
				info.FrontierEdges = degSum
				info.PushEstimate = ps.costs.pushBill(senders)
				info.PullBill = ps.costs.TotalNZCols
			}
			if err := d.ctrl.observer(info); err != nil {
				stats.Reason = StoppedByObserver
				return stats, err
			}
		}
		if sent == 0 || nactive == 0 {
			stats.Reason = Converged
			break
		}
		frontier = nactive
		if ps.reactivate != nil && iter+1 < maxIter {
			frontier = ps.reactivate()
		}
	}
	return stats, nil
}

// nextRow splits mask word w, word wi of a block vector's or state's
// summary whose per-vertex column masks are cols, into its first row and the
// rest: the row's first vertex v, its column mask m, and the slot base its
// column s adds to. A row is what one column mask covers: at k ≥ 2 the
// word's lowest vertex, whose column s sits at slot v*k+s; at k = 1, where a
// block keeps no per-vertex masks, the whole word, whose 64 columns are its
// vertices — vertex v|s at slot v|s. So a one-column run walks its mask
// words bit by bit, as the scalar engine always has, with no per-vertex
// column loop. It is generic only so that it inlines where the engine is
// instantiated; W is always uint64.
func nextRow[W ~uint64](wi int, w W, cols []W, k int) (v uint32, m W, base int, rest W) {
	if cols == nil {
		v = uint32(wi) << 6
		return v, w, int(v), 0
	}
	v = uint32(wi)<<6 | uint32(bits.TrailingZeros64(uint64(w)))
	return v, cols[v], int(v) * k, w & (w - 1)
}

// putRow is nextRow's inverse for an output mask: it adds row v, with column
// mask m, to the mask word out being assembled, storing m as v's column mask
// where the block keeps them (cols non-nil), and returns the word. It is
// generic only so that it inlines where the engine is instantiated; T is
// always uint32.
func putRow[T ~uint32](out uint64, cols []uint64, v T, m uint64) uint64 {
	if cols == nil {
		return m // the row is the word
	}
	if m != 0 {
		out |= 1 << (v & 63)
		cols[v] = m
	}
	return out
}

// runPhases is the engine's front-end for every width: SendMessage, the
// generalized multiply through sink, and Apply, over the n×k vertex state bst
// and the message and reduction blocks x and y, whose (vertex v, column s)
// slot is v*k+s. The phases walk rows (nextRow) and each row's columns, so a
// one-column block runs the same loops as a wide one. Width selects
// the sink (blockSink, scalarSink) and the shape of a row, nothing else.
func runPhases[V, E, M, R any, P Program[V, E, M, R]](
	g *graph.Graph[E], p P, cfg Config, ctrl *controller,
	bst *BlockState[V], x *BlockVector[M], y *BlockVector[R], sink colSink[E],
) (Stats, error) {
	d := newDriver(cfg, ctrl, int(g.NumVertices()))

	rows, _ := sink.(rowSink[E])
	// Auto and row-walk accounting per (vertex, column): a sender's edge work
	// counts once per column it sends in — the multiply really does fold each
	// of its edges that many times — and a vertex's row counts as unsettled
	// once per column still waiting in it.
	rp := planRun(g, p.Direction(), cfg, rows != nil)
	b := &phaseBody[V, E, M, R, P]{
		p: p, k: bst.k, props: bst.props,
		aw: bst.summary.Words(), xw: x.summary.Words(), yw: y.summary.Words(),
		acols: bst.active, xcols: x.cols, ycols: y.cols,
		xv: x.vals, yv: y.vals,
		sendDegs: rp.sendDegs, recvDegs: rp.recvDegs,
	}
	if b.k == 1 {
		b.slotVertex, b.rowShift = 63, 6
	}
	var prepare func() // a mask sink's per-superstep read of the frontier
	switch s := sink.(type) {
	case *blockMaskSink[V, E, M, R, P]:
		b.settled, b.colVals, prepare = s.settled, s.vals, s.prepare
	case *maskSink[V, E, M, R, P]:
		b.settled, b.colVals, prepare = s.settled, s.vals[:], s.prepare
	}
	if b.settled != nil {
		b.settling = any(p).(FirstMessageFinal[V])
		d.overChunks(func(lo, hi uint32, _ *localStats) { seedSettled(b.settled, b.settling, b.props, b.k, lo, hi) })()
	}
	send, apply := d.overChunks(b.send), d.overChunks(b.apply)
	messages := func() (int64, int64) {
		senders, sent := x.Occupancy()
		return int64(sent), int64(senders)
	}
	ps := phaseSet{
		active: bst.summary, mode: cfg.Mode, costs: rp.costs,
		send: func() (int64, int64) {
			x.Reset()
			send()
			return messages()
		},
		reactivate: bst.reactivation(p),
		multiply: func(mode Mode, rowWalk bool) {
			y.Reset()
			if prepare != nil {
				prepare()
			}
			var gather rowSink[E] // nil: the column walk of mode
			if rowWalk {
				gather = rows
			}
			rp.multiplyPhase(d.ex, d.stop, mode, b.xw, sink, gather, d.locals)
		},
		// x is dead once the multiply returns, so a fused apply may clear it.
		apply: func(sendNext bool) {
			if b.sendNext = sendNext; sendNext {
				x.Reset()
			}
			apply()
		},
	}
	if ps.reactivate == nil {
		ps.messages = messages
	}
	if b.recvDegs != nil {
		ps.unsettledEdges = func() int64 { return d.sumChunks(b.unsettled) }
	}
	return d.run(ps)
}

// phaseBody holds runPhases' per-chunk bodies — send, apply and the
// unsettled-edge count — over one run's arrays.
//
// The phases walk their chunk's mask words directly: each word's rows in
// ascending order and each row's columns in ascending order, with the output
// mask words — x's in send, active's and, when it sends the next superstep's
// messages, x's in apply — assembled in registers and stored once, and a
// vertex's output column masks stored once where the block keeps them
// (putRow). Chunks are 64-aligned (chunkBounds), so no word is shared between
// tasks, and no mask holds a bit at or past n, so a chunk's words are exactly
// its vertices. A chunk abandoned by a stop leaves its output words as the
// phase's Reset left them: empty.
type phaseBody[V, E, M, R any, P Program[V, E, M, R]] struct {
	p     P
	k     int
	props []V
	// aw, xw and yw are the summary words of the active set, x and y; acols,
	// xcols and ycols their per-vertex column masks (nil at k = 1).
	aw, xw, yw          []uint64
	acols, xcols, ycols []uint64
	xv                  []M
	yv                  []R
	// slotVertex masks the bits of a row's column s that name the slot's
	// vertex within the row: all six at k = 1, where a row's columns are its
	// vertices, and none at k ≥ 2, where every column is the row's vertex's.
	// rowShift turns a row's first vertex into its row index: 6 at k = 1,
	// where a row is a mask word, and 0 at k ≥ 2.
	slotVertex, rowShift uint32
	// sendDegs and recvDegs are runPlan's; settling is p's FirstMessageFinal,
	// set with settled.
	sendDegs, recvDegs []uint32
	settling           FirstMessageFinal[V]
	// settled is the settled mask of a mask sink (blockMaskSink, maskSink),
	// one word per row (seedSettled; a bitmap at k = 1), which apply keeps
	// current: a pair an Apply activated and left settled joins it. Nil for
	// every other sink.
	settled []uint64
	// colVals, set with a mask sink (blockMaskSink, maskSink), holds each
	// column's one reduced value of the superstep: apply reads it in place
	// of y's values, and calls Apply only on received pairs outside the
	// settled mask, which by the mask promise would return false and change
	// nothing.
	colVals []R
	// sendNext is apply's flag (phaseSet.apply), set before each dispatch.
	sendNext bool
}

// sendRow is the send step of row v (nextRow), written once for the send
// phase and a fused apply: SendMessage on each of the row's columns in m,
// each message into x. It returns the columns that sent and, under Auto,
// the sum of their senders' degrees, the row's share of the frontier's edge
// work, which the caller adds to its tally once per chunk. A fused apply
// calls it on a row right after the Apply calls that activated m, while the
// properties they wrote are in cache.
func (b *phaseBody[V, E, M, R, P]) sendRow(v uint32, m uint64, base int) (sent uint64, deg int64) {
	p, props, xv, sendDegs, slotVertex := b.p, b.props, b.xv, b.sendDegs, b.slotVertex
	for ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		u, i := v|uint32(s)&slotVertex, base+s
		if msg, ok := p.SendMessage(u, props[i]); ok {
			xv[i] = msg
			sent |= m & -m
			if sendDegs != nil {
				deg += int64(sendDegs[u])
			}
		}
	}
	return sent, deg
}

// send is the send phase over vertex chunk [lo, hi).
func (b *phaseBody[V, E, M, R, P]) send(lo, hi uint32, st *localStats) {
	wlo, whi := chunkWords(lo, hi)
	var degSum int64
	for wi := wlo; wi < whi; wi++ {
		w := b.aw[wi]
		if w == 0 {
			continue
		}
		var out uint64
		for w != 0 {
			v, m, base, rest := nextRow(wi, w, b.acols, b.k)
			w = rest
			sent, deg := b.sendRow(v, m, base)
			out = putRow(out, b.xcols, v, sent)
			degSum += deg
		}
		b.xw[wi] = out
	}
	st.degSum += degSum
}

// apply is the apply phase over vertex chunk [lo, hi), and with sendNext the
// next superstep's send phase too.
func (b *phaseBody[V, E, M, R, P]) apply(lo, hi uint32, st *localStats) {
	fused := b.sendNext
	p, props, slotVertex := b.p, b.props, b.slotVertex
	recvDegs, settling, settled := b.recvDegs, b.settling, b.settled
	// A row's column s takes its reduced value from vals[vb+s]: y's own slot
	// (vb = base), or with a mask sink its column's one value (vb = 0).
	vals, perCol := b.yv, b.colVals != nil
	if perCol {
		vals = b.colVals
	}
	wlo, whi := chunkWords(lo, hi)
	applies := 0
	var degSum, settledDeg int64
	for wi := wlo; wi < whi; wi++ {
		w := b.yw[wi]
		if w == 0 {
			continue
		}
		var next, out uint64
		for w != 0 {
			v, m, base, rest := nextRow(wi, w, b.ycols, b.k)
			w = rest
			applies += bits.OnesCount64(m)
			vb, row := base, v>>b.rowShift
			if perCol {
				vb, m = 0, m&^settled[row]
			}
			var am uint64
			for ; m != 0; m &= m - 1 {
				s := bits.TrailingZeros64(m)
				u, i := v|uint32(s)&slotVertex, base+s
				if p.Apply(vals[vb+s], u, &props[i]) {
					am |= m & -m
					// Only an unsettled pair activates (the mask bullet)
					// and only an activating Apply settles one (the settle
					// bullet), so one that did and is settled now was
					// settled by this Apply.
					if settled != nil && !settling.Unsettled(props[i]) {
						settled[row] |= m & -m
						if recvDegs != nil {
							settledDeg += int64(recvDegs[u])
						}
					}
				}
			}
			next = putRow(next, b.acols, v, am)
			if fused {
				sent, deg := b.sendRow(v, am, base)
				out = putRow(out, b.xcols, v, sent)
				degSum += deg
			}
		}
		b.aw[wi] = next
		if fused {
			b.xw[wi] = out
		}
	}
	st.applies += int64(applies)
	st.degSum += degSum
	st.settled += settledDeg
}

// unsettled is phaseSet.unsettledEdges over vertex chunk [lo, hi), from the
// settled mask: a bitmap at k = 1, per-vertex column masks in a k-wide run.
func (b *phaseBody[V, E, M, R, P]) unsettled(lo, hi uint32) (deg int64) {
	switch {
	case b.k == 1:
		wlo, whi := chunkWords(lo, hi)
		for wi := wlo; wi < whi; wi++ {
			for w := ^b.settled[wi] & rangeWord(wi, lo, hi); w != 0; w &= w - 1 {
				deg += int64(b.recvDegs[wi<<6|bits.TrailingZeros64(w)])
			}
		}
	default:
		all := fullCols(b.k)
		for i, sm := range b.settled[lo:hi] {
			deg += int64(bits.OnesCount64(all&^sm)) * int64(b.recvDegs[lo+uint32(i)])
		}
	}
	return deg
}

// seedSettled sets the rows of settled mask settled over vertex chunk
// [lo, hi) of the n×k property block props: bit s of a row for each of its
// slots whose property settling no longer reports unsettled. A row is
// nextRow's: a vertex's k slots at k ≥ 2, a mask word's 64 vertices at
// k = 1. runPhases seeds a run's mask over its vertex chunks in parallel.
func seedSettled[V any](settled []uint64, settling FirstMessageFinal[V], props []V, k int, lo, hi uint32) {
	width := k // slots per row
	if k == 1 {
		width = 64
	}
	end := int(hi) * k
	for r := int(lo) * k / width; r*width < end; r++ {
		var m uint64
		for s, prop := range props[r*width : min(r*width+width, end)] {
			if !settling.Unsettled(prop) {
				m |= 1 << s
			}
		}
		settled[r] = m
	}
}
