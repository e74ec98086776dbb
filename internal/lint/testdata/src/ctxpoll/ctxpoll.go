// Fixture for the ctxpoll analyzer: kernel-dispatching loops that do and do
// not poll a stop signal (the test points the pkgs flag at this package).
package ctxpoll

import (
	"context"
	"sync/atomic"
)

// walkPull, walkPush and walkRows stand in for the three traversals every
// engine shares (exact names in the default funcs pattern).
func walkPull(part int) {}
func walkPush(part int) {}
func walkRows(part int) {}

// multiply stands in for the per-task entry that selects a walk by mode, and
// spmvBoxedBitvec for a boxed ablation kernel (the spmvBoxed* prefix).
func multiply(mode, part int)  { walkPull(part) }
func spmvBoxedBitvec(part int) {}

// execCfg stands in for the engine's execution config.
type execCfg struct{ workers int }

// parallelFor mirrors the engine's dispatch helper: it polls the stop flag
// internally before every task, so routing through it with a non-nil stop
// argument counts as polling.
func parallelFor(ex execCfg, ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	for i := 0; i < ntasks; i++ {
		if stop != nil && stop.Load() != 0 {
			return
		}
		fn(i, 0)
	}
}

// pool mirrors the scheduler pool: Run and RunOptions poll the stop flag
// before every task.
type pool struct{}

func (p *pool) Run(ntasks int, stop *atomic.Int32, fn func(task, worker int)) {
	p.RunOptions(ntasks, stop, 0, fn)
}

func (p *pool) RunOptions(ntasks int, stop *atomic.Int32, opts int, fn func(task, worker int)) {
	for i := 0; i < ntasks; i++ {
		if stop != nil && stop.Load() != 0 {
			return
		}
		fn(i, 0)
	}
}

func sweepNoPoll(parts []int) {
	for _, p := range parts { // want "without polling"
		walkPull(p)
	}
}

func supersteps(parts []int, iters int) {
	for it := 0; it < iters; it++ { // want "without polling"
		for _, p := range parts { // want "without polling"
			walkPull(p)
		}
	}
}

func sweepWrapperNil(parts []int) {
	for round := 0; round < 3; round++ { // want "without polling"
		parallelFor(execCfg{4}, len(parts), nil, func(i, w int) {
			walkPull(parts[i])
		})
	}
}

func sweepPoolNil(parts []int, p *pool) {
	for round := 0; round < 3; round++ { // want "without polling"
		p.Run(len(parts), nil, func(i, w int) {
			walkPull(parts[i])
		})
	}
}

func sweepOtherWalksNoPoll(parts []int) {
	for _, p := range parts { // want "without polling"
		walkPush(p)
	}
	for _, p := range parts { // want "without polling"
		walkRows(p)
	}
}

func sweepTaskEntryNoPoll(parts []int) {
	for _, p := range parts { // want "without polling"
		multiply(1, p)
	}
}

func sweepBoxedNoPoll(parts []int) {
	for _, p := range parts { // want "without polling"
		spmvBoxedBitvec(p)
	}
}

func sweepAtomic(parts []int, stop *atomic.Int32) {
	for _, p := range parts {
		if stop.Load() != 0 {
			return
		}
		walkPull(p)
	}
}

func sweepCtx(ctx context.Context, parts []int) error {
	for _, p := range parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		walkPull(p)
	}
	return nil
}

func sweepWrapper(parts []int, stop *atomic.Int32) {
	for round := 0; round < 3; round++ {
		parallelFor(execCfg{4}, len(parts), stop, func(i, w int) {
			walkPull(parts[i])
		})
	}
}

func sweepPool(parts []int, p *pool, stop *atomic.Int32) {
	for round := 0; round < 3; round++ {
		p.Run(len(parts), stop, func(i, w int) {
			walkPull(parts[i])
		})
	}
}

func sweepPoolOptions(parts []int, p *pool, stop *atomic.Int32) {
	for round := 0; round < 3; round++ {
		p.RunOptions(len(parts), stop, 1, func(i, w int) {
			walkPull(parts[i])
		})
	}
}

func noKernelNoRule(parts []int) int {
	total := 0
	for _, p := range parts {
		total += p
	}
	return total
}
