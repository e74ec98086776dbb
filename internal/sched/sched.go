// Package sched is the engine's one parallel runtime, a persistent worker
// pool: one set of long-lived worker goroutines per worker count. Every
// engine phase — a run's first send, then multiply and apply (which also
// sends the next superstep's messages) × supersteps — dispatches through it,
// single-worker phases included (they run inline on the caller and are
// counted like any other), so no phase pays a goroutine spawn and a
// WaitGroup barrier.
//
// Hot and parked workers. A worker that finds no job parks on a condition
// variable and is woken in O(1) when a job arrives. A wake is not free: the
// woken goroutine starts tens of microseconds after the signal on a busy
// host, and a run of small supersteps pays it twice per superstep. So a
// caller that is about to issue many phases back to back — an engine run's
// superstep loop — opens a Hold for its length. While a hold is open, a
// worker that finds no job spins on the pool's job-arrival counter, yielding
// its processor between polls (runtime.Gosched), and the caller of a job
// waits for the job's last task by polling its remaining count the same
// way; each gives up after spinBudget (1 ms) and parks or blocks as it
// would without a hold. A hold never oversubscribes: executors spin only
// while the open holds' callers and the pool's workers fit on
// min(GOMAXPROCS, NumCPU) processors, since past that a spinner takes a
// processor from the work it waits for. So a pool with more workers than
// that never spins, nor does a 2-worker pool on two CPUs while two held
// runs share it. Outside every hold —
// one-shot calls, builds, an idle daemon — a worker parks as soon as it
// finds no job.
//
// A dispatch allocates nothing once the pool is warm: a finished job goes
// to the pool's free list as soon as its caller has returned and no worker
// still looks at it, and the next Run reuses it.
//
// Execution model. A Run call packs its tasks into per-slot spans —
// contiguous [lo, hi) index ranges, one per worker slot, stored as a single
// packed atomic word — and publishes the job to the pool. Executors claim a
// span and pop tasks from its low end; when their span drains they steal
// single tasks from the high end of other slots' spans (Chase-Lev style
// owner/thief ends, collapsed to one CAS word because tasks never re-enter
// a span). The *caller participates as an executor* of its own job, which
// gives two guarantees for free: a Run can never deadlock even if every
// pool worker is busy elsewhere (the caller alone drains it), and nested
// Run calls from inside a task are safe for the same reason.
//
// Cancellation keeps the engine's contract: stop, when non-nil, is polled
// before every task; once nonzero the remaining tasks are drained without
// executing, so a cancel aborts a multi-second sweep at task granularity.
//
// Instrumentation: every worker slot keeps cumulative tasks-run / steal /
// busy-ns / wake counters (cache-line padded), snapshotted by Stats and —
// across all shared pools — by Snapshot for /v1/stats; a per-Run Tally
// feeds the engine's per-run Stats.
package sched

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget bounds how long an executor of a held pool polls before it
// parks: a worker between jobs, or a caller waiting for its job's last task.
// It covers the gap between two phases of one superstep and a phase's last
// partition task; 50 µs measured too short for the latter on grid SSSP.
const spinBudget = time.Millisecond

// WorkerStats is a snapshot of one worker slot's cumulative counters.
// Slot 0 belongs to callers (Run participates in its own job); slots
// 1..workers-1 are the pool's parked goroutines.
type WorkerStats struct {
	// Tasks counts tasks this slot executed (excluding tasks drained
	// after a stop).
	Tasks int64 `json:"tasks"`
	// Steals counts tasks this slot took from another slot's span.
	Steals int64 `json:"steals"`
	// BusyNS is the cumulative wall time this slot spent participating in
	// jobs (claiming, executing and stealing tasks).
	BusyNS int64 `json:"busy_ns"`
	// Wakes counts park→run transitions: how many times the slot was
	// woken from the condition variable and found work. A worker that
	// finds its next job while spinning under a Hold is not woken.
	Wakes int64 `json:"wakes"`
}

// Tally accumulates one Run call's execution counts: how many tasks ran,
// how many arrived by stealing, and the summed busy time of every
// participating executor. The engine threads one through a run to report
// scheduler work in its Stats.
type Tally struct {
	Tasks  atomic.Int64
	Steals atomic.Int64
	BusyNS atomic.Int64
}

// Options tunes one Run call.
type Options struct {
	// Tally, when non-nil, additionally accumulates this call's counts.
	Tally *Tally
}

// counters is one worker slot's cumulative tallies, padded to a cache line
// so slots never false-share.
type counters struct {
	tasks  atomic.Int64
	steals atomic.Int64
	busyNS atomic.Int64
	wakes  atomic.Int64
	_      [32]byte
}

// span is one slot's task range, packed lo<<32|hi into a single atomic
// word: the owner pops from lo with a CAS, thieves pop from hi with a CAS,
// and the span is empty when lo >= hi. Padded so concurrent CAS traffic on
// neighbouring spans stays off each other's cache line.
type span struct {
	s atomic.Uint64
	_ [56]byte
}

func packSpan(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

// job is one Run call in flight.
type job struct {
	fn   func(task, worker int)
	stop *atomic.Int32
	// spans holds the per-slot task ranges; claim hands out span ownership
	// in order, so spans of busy slots are adopted by whoever is free.
	spans     []span
	claim     atomic.Int32
	remaining atomic.Int64
	// done carries the last executor's completion signal; buffered, so the
	// send never blocks and a reused job keeps its channel.
	done  chan struct{}
	tally *Tally
	// refs counts the pool workers that took the job from the queue and
	// have not come back for another; retired marks a job its caller has
	// finished with. A job is reused once both hold (Pool.recycle), so no
	// worker still reading its spans meets the next job's. Both are
	// guarded by Pool.mu.
	refs    int
	retired bool
}

// hasWork reports whether an executor could still acquire a task: an
// unclaimed span remains, or any span is nonempty to steal from.
func (j *job) hasWork() bool {
	if int(j.claim.Load()) < len(j.spans) {
		return true
	}
	for i := range j.spans {
		v := j.spans[i].s.Load()
		if uint32(v>>32) < uint32(v) {
			return true
		}
	}
	return false
}

// popLo takes the next task from the low (owner) end of span si.
func (j *job) popLo(si int) (int, bool) {
	sp := &j.spans[si].s
	for {
		v := sp.Load()
		lo, hi := uint32(v>>32), uint32(v)
		if lo >= hi {
			return 0, false
		}
		if sp.CompareAndSwap(v, packSpan(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// popHi takes one task from the high (thief) end of span si.
func (j *job) popHi(si int) (int, bool) {
	sp := &j.spans[si].s
	for {
		v := sp.Load()
		lo, hi := uint32(v>>32), uint32(v)
		if lo >= hi {
			return 0, false
		}
		if sp.CompareAndSwap(v, packSpan(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// Pool is a persistent set of worker goroutines executing Run calls. A
// Pool of n workers runs a job on at most n executors: n-1 parked
// goroutines plus the calling goroutine. Pools are safe for concurrent Run
// calls from multiple goroutines; jobs share the workers.
type Pool struct {
	nworkers int
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     []*job
	free     []*job // finished jobs no worker holds, for the next Run
	closed   bool
	wg       sync.WaitGroup
	counters []counters
	// holds counts the open Holds and cpus is min(GOMAXPROCS, NumCPU) as
	// the last Hold read it (see hot); arrivals counts published jobs (and
	// Close), which a spinning worker polls for new work.
	holds    atomic.Int32
	cpus     atomic.Int32
	arrivals atomic.Uint64
}

// NewPool creates a pool with n worker slots (minimum 1), spawning n-1
// goroutines. Prefer Shared outside tests: pools are cheap to keep but not
// to churn.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{nworkers: n, counters: make([]counters, n)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go p.worker(w)
	}
	return p
}

// Close shuts the pool's worker goroutines down and waits for them to
// exit. It must not race with Run. Shared pools are never closed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.arrivals.Add(1)
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Hold keeps the pool's workers hot until release is called: between jobs
// a worker spins for up to spinBudget before it parks, and a Run caller
// polls for its job's completion as long before it blocks. A caller about to
// issue many short phases in a row takes one hold around all of them. Holds
// nest and may be released from any goroutine; release is idempotent. A
// hold only spins where it does not oversubscribe the machine (see hot).
func (p *Pool) Hold() (release func()) {
	p.cpus.Store(int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU())))
	p.holds.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			p.holds.Add(-1)
		}
	}
}

// hot reports whether the pool's executors spin rather than park: a hold is
// open, and its holders — each the caller of at most one job at a time —
// and the pool's workers fit on min(GOMAXPROCS, NumCPU) processors. Past
// that a spinner takes a processor from the work it waits for: a pool wider
// than the machine never spins, nor does a 2-worker pool on two CPUs while
// two held runs share it.
func (p *Pool) hot() bool {
	h := p.holds.Load()
	return h > 0 && h+int32(p.nworkers)-1 <= p.cpus.Load()
}

// spin polls done, yielding the processor between polls, until it reports
// true or spinBudget passes, and returns done's last answer.
func spin(done func() bool) bool {
	deadline := time.Now().Add(spinBudget)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
		osYield()
	}
	return true
}

// Stats snapshots the pool's per-slot cumulative counters.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.counters))
	for i := range p.counters {
		c := &p.counters[i]
		out[i] = WorkerStats{
			Tasks:  c.tasks.Load(),
			Steals: c.steals.Load(),
			BusyNS: c.busyNS.Load(),
			Wakes:  c.wakes.Load(),
		}
	}
	return out
}

// Run executes fn(task, worker) for every task in [0, ntasks) on up to n
// executors, n the pool's worker-slot count (its parked workers plus the
// caller), and returns when all tasks have finished. worker indices are
// unique among the job's concurrent executors and < n, so callers may index
// per-worker scratch with them. stop, when non-nil, is polled before every
// task: once nonzero, remaining tasks are abandoned. Tasks are dealt as
// contiguous per-slot spans and rebalanced by work stealing, so no
// execution-order assumption is sound beyond: each task runs exactly once,
// on exactly one executor.
func (p *Pool) Run(ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	p.RunOptions(ntasks, stop, Options{}, fn)
}

// RunOptions is Run with scheduling options.
func (p *Pool) RunOptions(ntasks int, stop *atomic.Int32, opts Options, fn func(task, worker int)) {
	if ntasks <= 0 {
		return
	}
	if p.nworkers == 1 || ntasks == 1 {
		p.runInline(ntasks, stop, opts, fn)
		return
	}
	nspans := min(p.nworkers, ntasks)
	p.mu.Lock()
	j := p.newJob()
	j.fn, j.stop, j.tally = fn, stop, opts.Tally
	j.spans = j.spans[:nspans]
	for s := 0; s < nspans; s++ {
		j.spans[s].s.Store(packSpan(uint32(s*ntasks/nspans), uint32((s+1)*ntasks/nspans)))
	}
	j.claim.Store(0)
	j.remaining.Store(int64(ntasks))
	p.jobs = append(p.jobs, j)
	p.arrivals.Add(1)
	p.mu.Unlock()
	// Wake one parked worker per span beyond the caller's own slot: a
	// broadcast would schedule every worker just to find nothing
	// acquirable when the job has fewer spans than the pool has workers.
	// A signal that lands while its target is still busy on another job is
	// not lost — workers re-check the job list before parking — and one
	// that finds no worker parked (they are spinning under a Hold) costs
	// nothing.
	for w := 1; w < nspans; w++ {
		p.cond.Signal()
	}

	p.work(0, j)
	if p.hot() {
		spin(func() bool { return j.remaining.Load() == 0 })
	}
	<-j.done

	// Drop the closure now, so nothing it captured stays reachable from
	// the pool. slices.Delete zeroes the vacated tail slot of the queue.
	j.fn, j.stop, j.tally = nil, nil, nil
	p.mu.Lock()
	if i := slices.Index(p.jobs, j); i >= 0 {
		p.jobs = slices.Delete(p.jobs, i, i+1)
	}
	j.retired = true
	p.recycle(j)
	p.mu.Unlock()
}

// newJob returns a reset job from the free list, or a new one. Called with
// p.mu held.
func (p *Pool) newJob() *job {
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		j.retired = false
		return j
	}
	return &job{spans: make([]span, p.nworkers), done: make(chan struct{}, 1)}
}

// recycle returns j to the free list once it is retired and no worker
// holds it. Called with p.mu held.
func (p *Pool) recycle(j *job) {
	if j.retired && j.refs == 0 {
		p.free = append(p.free, j)
	}
}

// runInline executes the job on the calling goroutine alone (single-slot
// pools and single-task jobs skip the publish/park machinery entirely) and
// accounts it to slot 0 and the tally like a published job.
func (p *Pool) runInline(ntasks int, stop *atomic.Int32, opts Options, fn func(task, worker int)) {
	t0 := time.Now()
	ran := int64(0)
	for i := 0; i < ntasks; i++ {
		if stop != nil && stop.Load() != 0 {
			break
		}
		fn(i, 0)
		ran++
	}
	busy := time.Since(t0).Nanoseconds()
	p.counters[0].tasks.Add(ran)
	p.counters[0].busyNS.Add(busy)
	if t := opts.Tally; t != nil {
		t.Tasks.Add(ran)
		t.BusyNS.Add(busy)
	}
}

// worker is one pool goroutine's loop: wait for a job with acquirable
// work, participate, repeat.
func (p *Pool) worker(wid int) {
	defer p.wg.Done()
	var last *job
	for {
		j := p.nextJob(wid, last)
		if j == nil {
			return
		}
		p.work(wid, j)
		last = j
	}
}

// nextJob lets go of the worker's previous job, last, and blocks until some
// queued job has acquirable work (or the pool closes). Work only ever
// appears with a new job — tasks never re-enter a span — so waiting on the
// job-arrival signal cannot miss a wakeup; under a Hold the worker first
// spins on the arrival counter, read under the lock that publishes jobs.
func (p *Pool) nextJob(wid int, last *job) *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	if last != nil {
		last.refs--
		p.recycle(last)
	}
	waited, hot := false, true
	for {
		if p.closed {
			return nil
		}
		for _, j := range p.jobs {
			if j.hasWork() {
				j.refs++
				if waited {
					p.counters[wid].wakes.Add(1)
				}
				return j
			}
		}
		if hot && p.hot() {
			seen := p.arrivals.Load()
			p.mu.Unlock()
			hot = spin(func() bool { return p.arrivals.Load() != seen || !p.hot() })
			p.mu.Lock()
			continue
		}
		waited, hot = true, true
		p.cond.Wait()
	}
}

// work participates in job j as slot wid until the job has no task this
// executor could acquire: claim unclaimed spans and drain them from the
// owner end, then steal from the thief end of the others. Its counts are
// flushed before its tasks are marked finished, so a Run that returns has
// every executor's tasks, steals and busy time in the tally.
func (p *Pool) work(wid int, j *job) {
	t0 := time.Now()
	var taken, ran, stolen int64
	for {
		if si := int(j.claim.Add(1) - 1); si < len(j.spans) {
			for {
				task, ok := j.popLo(si)
				if !ok {
					break
				}
				taken++
				ran += j.exec(task, wid)
			}
			continue
		}
		task, si := -1, -1
		for i := range j.spans {
			if t, ok := j.popHi(i); ok {
				task, si = t, i
				break
			}
		}
		if si < 0 {
			break
		}
		taken++
		stolen++
		ran += j.exec(task, wid)
	}
	if taken == 0 {
		return
	}
	if ran > 0 || stolen > 0 {
		busy := time.Since(t0).Nanoseconds()
		c := &p.counters[wid]
		c.tasks.Add(ran)
		c.steals.Add(stolen)
		c.busyNS.Add(busy)
		if t := j.tally; t != nil {
			t.Tasks.Add(ran)
			t.Steals.Add(stolen)
			t.BusyNS.Add(busy)
		}
	}
	// The executor that accounts for the last outstanding task completes
	// the job.
	if j.remaining.Add(-taken) == 0 {
		j.done <- struct{}{}
	}
}

// exec runs one task, or abandons it once the job is stopped; it returns
// the number of tasks run.
func (j *job) exec(task, wid int) int64 {
	if j.stop != nil && j.stop.Load() != 0 {
		return 0
	}
	j.fn(task, wid)
	return 1
}

// Shared pools, keyed by worker count: the process-wide persistent runtime.
// A pool is spawned on first request for its size and kept forever after
// — workers survive across runs, workspaces and sessions, which is what
// removes the per-phase spawn cost. Shared pools are never closed.
var (
	sharedMu sync.Mutex
	shared   = map[int]*Pool{}
)

// Shared returns the process-wide pool with n worker slots, creating it on
// first use.
func Shared(n int) *Pool {
	if n < 1 {
		n = 1
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p, ok := shared[n]; ok {
		return p
	}
	p := NewPool(n)
	shared[n] = p
	return p
}

// PoolStats is one shared pool's stats snapshot for /v1/stats.
type PoolStats struct {
	// Workers is the pool's worker-slot count (slot 0 is the callers'
	// slot: Run participates in its own jobs).
	Workers int `json:"workers"`
	// PerWorker is the per-slot cumulative counter snapshot.
	PerWorker []WorkerStats `json:"per_worker"`
}

// Snapshot returns the cumulative counters of every shared pool spawned so
// far, ordered by worker count.
func Snapshot() []PoolStats {
	sharedMu.Lock()
	pools := make([]*Pool, 0, len(shared))
	for _, p := range shared {
		pools = append(pools, p)
	}
	sharedMu.Unlock()
	sort.Slice(pools, func(i, k int) bool { return pools[i].nworkers < pools[k].nworkers })
	out := make([]PoolStats, len(pools))
	for i, p := range pools {
		out[i] = PoolStats{Workers: p.nworkers, PerWorker: p.Stats()}
	}
	return out
}
