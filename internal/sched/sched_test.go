package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunExecutesEveryTaskOnce covers the basic contract across worker and
// task counts, including nworkers > ntasks and the inline paths.
func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, nw := range []int{1, 2, 4, 8} {
		for _, nt := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
			p := NewPool(nw)
			hits := make([]atomic.Int32, max(nt, 1))
			p.Run(nt, nil, func(task, worker int) {
				if worker < 0 || worker >= nw {
					t.Errorf("nw=%d nt=%d: worker index %d out of range", nw, nt, worker)
				}
				hits[task].Add(1)
			})
			for i := 0; i < nt; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("nw=%d nt=%d: task %d ran %d times", nw, nt, i, got)
				}
			}
			p.Close()
		}
	}
}

// TestZeroTasks asserts Run with no tasks returns without touching the
// pool (and that a nil fn is never called).
func TestZeroTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Run(0, nil, nil)
	p.Run(-3, nil, nil)
}

// TestPoolReuseAcrossRuns drives many consecutive runs through one pool —
// the workspace-reuse pattern: a session's supersteps issue thousands of
// Run calls against the same parked workers. Run under -race this also
// checks the publication of fn's captured state to pool workers.
func TestPoolReuseAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const runs, nt = 500, 37
	total := 0
	for r := 0; r < runs; r++ {
		var sum atomic.Int64
		p.Run(nt, nil, func(task, _ int) { sum.Add(int64(task) + 1) })
		if got, want := sum.Load(), int64(nt*(nt+1)/2); got != want {
			t.Fatalf("run %d: sum %d, want %d", r, got, want)
		}
		total += nt
	}
	stats := p.Stats()
	var tasks int64
	for _, ws := range stats {
		tasks += ws.Tasks
	}
	if tasks != int64(total) {
		t.Fatalf("cumulative tasks %d, want %d", tasks, total)
	}
}

// TestConcurrentRuns issues overlapping jobs from many goroutines against
// one pool: worker indices must stay unique per job (checked by writing to
// per-worker slots without synchronization — -race catches sharing).
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				scratch := make([][]int, len(p.Stats()))
				p.Run(29, nil, func(task, worker int) {
					scratch[worker] = append(scratch[worker], task)
				})
				n := 0
				for _, s := range scratch {
					n += len(s)
				}
				if n != 29 {
					t.Errorf("saw %d tasks, want 29", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNestedRun issues a Run from inside a task: the caller-participation
// design must drain the inner job even when every pool worker is occupied.
func TestNestedRun(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var inner atomic.Int64
	p.Run(4, nil, func(task, _ int) {
		p.Run(8, nil, func(int, int) { inner.Add(1) })
	})
	if got := inner.Load(); got != 32 {
		t.Fatalf("inner tasks ran %d times, want 32", got)
	}
}

// TestStopAbandonsTasks sets the stop flag from inside an early task and
// asserts the bulk of the job is abandoned while Run still returns.
func TestStopAbandonsTasks(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var stop atomic.Int32
	var ran atomic.Int64
	p.Run(10000, &stop, func(task, _ int) {
		ran.Add(1)
		stop.Store(1)
	})
	if got := ran.Load(); got >= 10000 {
		t.Fatalf("stop abandoned nothing: %d tasks ran", got)
	}
	if stop.Load() == 0 {
		t.Fatal("no task ran at all")
	}
}

// TestStopHonoredFromStolenTask cancels from a task that was stolen: the
// flag must be honored by every executor, including the thief's subsequent
// pops. The heavy first span pins the owner while the other spans drain,
// forcing real steals before the cancel.
func TestStopHonoredFromStolenTask(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	for round := 0; round < 20; round++ {
		var stop atomic.Int32
		var ran, afterStop atomic.Int64
		block := make(chan struct{}, 1)
		const nt = 4096
		p.Run(nt, &stop, func(task, worker int) {
			ran.Add(1)
			if stop.Load() != 0 {
				afterStop.Add(1)
			}
			if task == 0 {
				// Pin the first span's owner until another executor has
				// stolen and cancelled.
				<-block
				return
			}
			if task > nt/2 {
				// A task from the top half: on an 8-slot span layout this
				// ran on a different executor than task 0's owner, very
				// often via a steal. Cancel from here.
				stop.Store(1)
				select {
				case block <- struct{}{}:
				default:
				}
			}
		})
		// The unblock send may not have fired if the cancel came before
		// task 0 started; release it unconditionally.
		select {
		case block <- struct{}{}:
		default:
		}
		if got := ran.Load(); got >= nt {
			t.Fatalf("round %d: cancellation abandoned nothing (%d ran)", round, got)
		}
	}
	// The pinned first span leaves hundreds of tasks for thieves each
	// round: real steals must have happened (and honored the stop flag —
	// stolen pops after the cancel are abandoned, which the ran < nt
	// assertion above already covered).
	var steals int64
	for _, ws := range p.Stats() {
		steals += ws.Steals
	}
	if steals == 0 {
		t.Fatal("no steal was recorded across 20 pinned rounds")
	}
}

// TestStatsCounters asserts the instrumentation moves: tasks accumulate
// exactly, busy time is nonzero, and a Tally matches the per-run work.
func TestStatsCounters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var tl Tally
	const nt = 128
	p.RunOptions(nt, nil, Options{Tally: &tl}, func(task, _ int) {
		s := 0
		for i := 0; i < 1000; i++ {
			s += i
		}
		_ = s
	})
	if got := tl.Tasks.Load(); got != nt {
		t.Fatalf("tally tasks %d, want %d", got, nt)
	}
	if tl.BusyNS.Load() <= 0 {
		t.Fatal("tally busy time is zero")
	}
	var tasks, busy int64
	for _, ws := range p.Stats() {
		tasks += ws.Tasks
		busy += ws.BusyNS
	}
	if tasks != nt || busy <= 0 {
		t.Fatalf("pool counters tasks=%d busy=%d, want tasks=%d busy>0", tasks, busy, nt)
	}
}

// TestTallyCompleteWhenRunReturns asserts a Run's counts are flushed before
// it returns, not merely before its workers park: the engine reads a run's
// tally right after its last phase, and Stats.Sched.Tasks is documented (and
// pinned by tests) as deterministic.
func TestTallyCompleteWhenRunReturns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var tl Tally
	const nt = 8
	for round := int64(1); round <= 5000; round++ {
		// Yielding tasks give the parked workers time to join, so the last
		// task — whose completion releases the caller — often runs on one.
		p.RunOptions(nt, nil, Options{Tally: &tl}, func(int, int) { runtime.Gosched() })
		if got := tl.Tasks.Load(); got != round*nt {
			t.Fatalf("round %d: tally holds %d tasks on return, want %d", round, got, round*nt)
		}
	}
}

// TestSharedPoolIdentity asserts Shared returns one pool per worker count,
// and that Snapshot sees it.
func TestSharedPoolIdentity(t *testing.T) {
	a, b := Shared(3), Shared(3)
	if a != b {
		t.Fatal("Shared(3) returned two pools")
	}
	if c := Shared(5); c == a {
		t.Fatal("Shared(5) aliased Shared(3)")
	}
	a.Run(16, nil, func(int, int) {})
	found := false
	for _, ps := range Snapshot() {
		if ps.Workers == 3 {
			found = true
			if len(ps.PerWorker) != 3 {
				t.Fatalf("snapshot has %d slots, want 3", len(ps.PerWorker))
			}
		}
	}
	if !found {
		t.Fatal("Snapshot is missing the 3-worker shared pool")
	}
}

// TestPoolReleasesFinishedJob asserts a returned Run leaves nothing of the
// job reachable from the pool: the task closure captures an object with a
// finalizer, and two collections after Run returns — with no later job to
// overwrite a stale slot — the finalizer has fired. Covers the published
// multi-worker path and the inline one.
func TestPoolReleasesFinishedJob(t *testing.T) {
	for _, tc := range []struct {
		name            string
		workers, ntasks int
	}{
		{"published", 4, 64},
		{"inline", 1, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.workers)
			defer p.Close()
			finalized := make(chan struct{})
			func() {
				captured := new([1 << 16]byte)
				runtime.SetFinalizer(captured, func(*[1 << 16]byte) { close(finalized) })
				p.Run(tc.ntasks, nil, func(task, _ int) { captured[task]++ })
			}()
			for i := 0; i < 2; i++ {
				runtime.GC()
			}
			select {
			case <-finalized:
			case <-time.After(5 * time.Second):
				t.Fatal("the pool still reaches the finished job's closure after two GCs")
			}
		})
	}
}

// hotPool returns a 2-worker pool a Hold keeps hot, skipping the test where
// the machine is too small for one to spin.
func hotPool(t *testing.T) *Pool {
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) < 2 {
		t.Skip("a hold spins only with two processors and two CPUs")
	}
	p := NewPool(2)
	t.Cleanup(p.Close)
	return p
}

// pairedJob runs one 2-task job on a 2-worker pool whose tasks wait for each
// other to start, so they run at once on both executors: the caller and the
// pool's worker run one task each.
func pairedJob(t *testing.T, p *Pool) {
	var arrived atomic.Int32
	p.Run(2, nil, func(int, int) {
		arrived.Add(1)
		deadline := time.Now().Add(5 * time.Second)
		for arrived.Load() < 2 {
			if time.Now().After(deadline) {
				t.Error("the job's two tasks never ran at once")
				return
			}
			runtime.Gosched()
		}
	})
}

// TestHoldKeepsWorkersHot: under a hold, back-to-back jobs find the worker
// spinning, not parked, so its Wakes stay nearly flat across 200 jobs it
// takes part in; after release it parks, and the next job, sent well after
// the spin budget, wakes it exactly once.
func TestHoldKeepsWorkersHot(t *testing.T) {
	p := hotPool(t)
	pairedJob(t, p) // start the worker: its first job may find it not yet parked
	release := p.Hold()
	before := p.Stats()[1]
	const jobs = 200
	for range jobs {
		pairedJob(t, p)
	}
	held := p.Stats()[1]
	release()
	if got := held.Tasks - before.Tasks; got != jobs {
		t.Fatalf("the worker ran %d tasks of %d jobs, want one each", got, jobs)
	}
	if got := held.Wakes - before.Wakes; got > jobs/10 {
		t.Errorf("%d wakes over %d held jobs, want at most %d", got, jobs, jobs/10)
	}
	time.Sleep(20 * spinBudget)
	pairedJob(t, p)
	if got := p.Stats()[1].Wakes - held.Wakes; got != 1 {
		t.Errorf("a job after release woke the worker %d times, want 1", got)
	}
}

// TestHoldsNest: holds count up and down, release is idempotent, and two
// holds released at once from two goroutines leave none open; the pool
// keeps running jobs correctly throughout.
func TestHoldsNest(t *testing.T) {
	p := hotPool(t)
	outer, inner := p.Hold(), p.Hold()
	if got := p.holds.Load(); got != 2 {
		t.Fatalf("%d holds open after two Holds, want 2", got)
	}
	pairedJob(t, p)
	inner()
	inner()
	if got := p.holds.Load(); got != 1 {
		t.Fatalf("%d holds open after one release (called twice), want 1", got)
	}
	again := p.Hold()
	var wg sync.WaitGroup
	for _, release := range []func(){outer, again} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release()
			release()
		}()
	}
	wg.Wait()
	if got := p.holds.Load(); got != 0 {
		t.Fatalf("%d holds open after every release, want 0", got)
	}
	pairedJob(t, p)
}

// TestHoldNeverOversubscribes: a pool with more workers than
// min(GOMAXPROCS, NumCPU) never spins under a hold — on a 2-CPU machine
// this is every pool of the -cpu=4 leg of make test-cpus — and neither does
// one whose held callers and workers together outnumber those processors;
// its workers still park between jobs and run every task.
func TestHoldNeverOversubscribes(t *testing.T) {
	cpus := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	wide := NewPool(cpus + 1)
	defer wide.Close()
	release := wide.Hold()
	if wide.hot() {
		t.Fatalf("a %d-worker pool on %d usable CPUs spins under a hold", cpus+1, cpus)
	}
	var ran atomic.Int64
	for range 20 {
		wide.Run(64, nil, func(int, int) { ran.Add(1) })
	}
	release()
	if got := ran.Load(); got != 20*64 {
		t.Fatalf("ran %d tasks, want %d", got, 20*64)
	}
	if cpus < 2 {
		return
	}
	// cpus workers fit with one held caller, not with two.
	full := NewPool(cpus)
	defer full.Close()
	first := full.Hold()
	defer first()
	if !full.hot() {
		t.Fatalf("a %d-worker pool on %d usable CPUs does not spin under one hold", cpus, cpus)
	}
	second := full.Hold()
	if full.hot() {
		t.Fatalf("a %d-worker pool on %d usable CPUs spins under two holds", cpus, cpus)
	}
	second()
	if !full.hot() {
		t.Fatal("releasing the second hold did not make the pool hot again")
	}
}

// TestHoldConcurrentRuns is TestConcurrentRuns with holds opening and
// closing around the jobs: jobs are reused from the pool's free list, and a
// worker may still be looking at a finished job when its caller returns, so
// under -race this checks a reused job never mixes two Runs' tasks.
func TestHoldConcurrentRuns(t *testing.T) {
	p := NewPool(min(runtime.GOMAXPROCS(0), runtime.NumCPU(), 4))
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				release := p.Hold()
				nt := 1 + (g*7+r)%40
				hits := make([]int32, nt)
				scratch := make([]int, len(p.Stats()))
				p.Run(nt, nil, func(task, worker int) {
					hits[task]++
					scratch[worker]++
				})
				release()
				for i, h := range hits {
					if h != 1 {
						t.Errorf("task %d of %d ran %d times", i, nt, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := p.holds.Load(); got != 0 {
		t.Fatalf("%d holds open after every release, want 0", got)
	}
}
