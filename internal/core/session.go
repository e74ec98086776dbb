package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"graphmat/internal/graph"
)

// This file is the context-aware execution API: RunContext drives the same
// superstep loop as Run, but the run is observable (a per-superstep callback)
// and stoppable (context cancellation, a wall-clock budget, or the observer
// itself). Run is a thin wrapper over RunContext, and RunContext over the
// entry body runColumns (engine_block.go).

// StopReason classifies why a run ended; it is recorded in Stats.Reason.
type StopReason int

const (
	// ReasonNone is the zero value: the run has not been classified (only
	// seen on aggregated Stats, never on a completed run).
	ReasonNone StopReason = iota
	// Converged means no vertex remained active (Algorithm 2's natural
	// termination).
	Converged
	// MaxIterations means the run hit Config.MaxIterations.
	MaxIterations
	// Canceled means the run's context was canceled.
	Canceled
	// DeadlineExceeded means the context deadline expired.
	DeadlineExceeded
	// StoppedByObserver means a WithObserver callback returned an error.
	StoppedByObserver
)

// String names the reason for logs and JSON.
func (r StopReason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case Converged:
		return "converged"
	case MaxIterations:
		return "max_iterations"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline_exceeded"
	case StoppedByObserver:
		return "stopped_by_observer"
	}
	return fmt.Sprintf("stop_reason(%d)", int(r))
}

// MarshalJSON encodes the reason as its string name.
func (r StopReason) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON decodes a string name back to the typed reason.
func (r *StopReason) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: stop reason must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for _, cand := range []StopReason{ReasonNone, Converged, MaxIterations, Canceled, DeadlineExceeded, StoppedByObserver} {
		if cand.String() == name {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown stop reason %q", name)
}

// err maps a stop reason to the error RunContext returns for it. Normal
// terminations map to nil.
func (r StopReason) err() error {
	switch r {
	case Canceled:
		return context.Canceled
	case DeadlineExceeded:
		return context.DeadlineExceeded
	}
	return nil
}

// IterationInfo is the per-superstep progress report delivered to observers.
type IterationInfo struct {
	// Iteration is the 1-based superstep number just completed.
	Iteration int `json:"iteration"`
	// Active is the frontier size entering the superstep.
	Active int64 `json:"active"`
	// Sent counts messages produced this superstep.
	Sent int64 `json:"sent"`
	// Applies counts vertices that received a reduced value this superstep.
	Applies int64 `json:"applies"`
	// NextActive is the frontier size for the next superstep; 0 means the
	// run converged. Unless the run ends here, that frontier has already
	// sent its messages, which the next superstep's report counts in Sent.
	// For an AllVerticesActive program it counts the vertices whose Apply
	// returned true, still 0 on convergence; the next superstep's Active is
	// the frontier the engine re-activated after this report.
	NextActive int64 `json:"next_active"`
	// Mode is the SpMV kernel the superstep ran (Pull or Push — Auto is
	// resolved per superstep before the multiply). A superstep that sent no
	// messages ran no kernel and reports the mode that would have been
	// chosen.
	Mode Mode `json:"mode"`
	// RowWalk reports that this Pull superstep gathered by destination row
	// instead of sweeping columns (see Stats.RowSupersteps), which only a
	// program declaring SemiringBoolean, FirstMessageFinal and
	// DstIndependent does. Applies is
	// walk-dependent: it then counts only the unsettled vertices a message
	// reached. Active, Sent and NextActive are not.
	RowWalk bool `json:"row_walk"`
	// FrontierEdges, PushEstimate and PullBill are what an Auto superstep's
	// mode was chosen from (KernelCosts.Choose): the frontier's edge work,
	// which the edge rule holds against the traversal structure's live edge
	// count, and the two sides of the probe rule — the push walk's estimated
	// lookup bill and the column sweep's bill, both in column probes. Mode is
	// Push exactly when FrontierEdges × DefaultPushThreshold is at most the
	// live edge count and PushEstimate is at most PullBill. All three are
	// zero when Config.Mode forces the walk.
	FrontierEdges int64 `json:"frontier_edges"`
	PushEstimate  int64 `json:"push_estimate"`
	PullBill      int64 `json:"pull_bill"`
	// Elapsed is this superstep's wall time.
	Elapsed time.Duration `json:"elapsed"`
	// Total is the wall time since the run (or the driving algorithm's
	// session) started.
	Total time.Duration `json:"total"`
}

// Observer is a per-superstep callback. Returning a non-nil error stops the
// run with reason StoppedByObserver; RunContext returns that error verbatim.
// Observers run on the engine's goroutine between supersteps, so a slow
// observer stalls the run.
//
// When another superstep will run, its messages already exist when the
// observer is called: the apply phase being reported sent them from the
// properties it wrote (see Program). An observer must therefore not change
// vertex state or the active set mid-run. A program that keeps every vertex
// active (PageRank) declares AllVerticesActive, and the engine re-activates
// after the report; a driver that changes state between supersteps in any
// other way (HITS alternating two programs) runs one-superstep runs and
// changes it between runs instead.
type Observer = func(IterationInfo) error

// RunOption configures a RunContext call.
type RunOption func(*runOptions)

type runOptions struct {
	observer Observer
}

// WithObserver invokes fn after every superstep with that superstep's
// progress. An error return stops the run (reason StoppedByObserver).
func WithObserver(fn Observer) RunOption {
	return func(o *runOptions) { o.observer = fn }
}

// controller carries a run's stop machinery into the superstep loop. The
// stop word holds 0 while the run may proceed and the StopReason once a stop
// was requested; workers in the parallel partition loops poll it with a
// single atomic load per task, so even a multi-second SpMV aborts within one
// partition's worth of work.
type controller struct {
	stop     atomic.Int32
	ctx      context.Context
	observer Observer
}

// signal requests a stop; the first reason wins.
func (c *controller) signal(r StopReason) { c.stop.CompareAndSwap(0, int32(r)) }

// stopped reports whether a stop was requested and why. The flag is the fast
// path; the context is polled too so a cancellation is seen at the very next
// superstep boundary even if the watcher has not run yet.
func (c *controller) stopped() (StopReason, bool) {
	if r := StopReason(c.stop.Load()); r != ReasonNone {
		return r, true
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			r := ctxReason(err)
			c.signal(r)
			return r, true
		}
	}
	return ReasonNone, false
}

// flag exposes the stop word for the partition loops; nil means "never
// stops" and lets parallelFor skip the poll entirely.
func (c *controller) flag() *atomic.Int32 {
	if c == nil {
		return nil
	}
	return &c.stop
}

// newController builds the run's controller, arming the context watcher: a
// context.AfterFunc that raises the stop word when ctx is done. The returned
// release func must be called when the run ends; it unregisters the watcher.
func newController(ctx context.Context, ro runOptions) (*controller, func()) {
	c := &controller{observer: ro.observer}
	if ctx == nil || ctx.Done() == nil {
		return c, func() {}
	}
	c.ctx = ctx
	// Pre-canceled contexts stop the run before the first superstep.
	if err := ctx.Err(); err != nil {
		c.signal(ctxReason(err))
		return c, func() {}
	}
	stop := context.AfterFunc(ctx, func() { c.signal(ctxReason(ctx.Err())) })
	return c, func() { stop() }
}

// ctxReason maps a context error to the stop reason it represents.
func ctxReason(err error) StopReason {
	if err == context.DeadlineExceeded {
		return DeadlineExceeded
	}
	return Canceled
}

// RunContext executes program p on graph g over the k source columns of the
// run's vertex state st, under ctx. st carries the per-(vertex, column)
// properties and active set: initialize each column's starting state there
// before the call, and read the results from it after (BlockState.Columns).
// g is only read, so any number of runs, each over its own state, can share
// one graph or one pinned snapshot. ws, when non-nil, is caller-managed
// scratch (it must match g's vertex count and st's width); nil allocates
// fresh scratch. Options attach a per-superstep observer.
//
// Cancellation and deadlines stop the run cooperatively: they are checked
// between supersteps and through an atomic flag inside the parallel partition
// loops, so even long SpMVs abort promptly. The returned Stats reflect the
// work actually done, and Stats.Reason records why the run ended. The error
// is nil for normal terminations (Converged, MaxIterations), ctx.Err() for
// Canceled/DeadlineExceeded, and the observer's own error for
// StoppedByObserver. After a stopped run st is partial — mid-algorithm — but
// the workspace is reusable as-is: the engine clears each scratch block
// before the phase that fills it, and a run's first superstep always sends
// anew.
//
// Every width runs the same send and apply over st and ws. A one-column run
// folds through the scalar sinks, flat fold included; two or more columns
// fold through the k-wide block sinks, whose Stats.FlatEdges is 0. A program
// declaring SemiringBoolean, FirstMessageFinal and DstIndependent folds
// column masks, not values, at every width (maskSink, blockMaskSink), and
// its dense Pull supersteps gather by destination row (Stats.RowSupersteps):
// the k-wide gather scans a row once for all the columns still unsettled in
// it, chosen by the same per-superstep test with both sides billed per
// (vertex, column). Auto bills the push probe cost per distinct sender
// vertex, not per (vertex, column) message.
//
// Before any superstep RunContext rejects a state or workspace that does not
// fit g, a program whose Direction names a traversal structure g was built
// without (Options.Directions), and a Config invalid at st's width: the
// Figure 7 ablation (Dispatch Boxed or BoxedSorted) runs one column. It also
// rejects a state of two or more columns for a program that does not
// declare DstIndependent: one traversal of an edge serves every column's
// destination, so the block sinks fold with p's ProcessMessage given the
// zero V (as the scalar fold gives such a program) and Reduce in the scalar
// engine's order. Each column's result is then bit-identical to a
// one-column run of p from that column's starting state alone.
func RunContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *graph.Graph[E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts ...RunOption,
) (Stats, error) {
	if st == nil {
		return Stats{}, fmt.Errorf("core: a run requires a BlockState")
	}
	if _, ok := any(p).(DstIndependent); !ok && st.k > 1 {
		return Stats{}, fmt.Errorf("core: %T does not declare DstIndependent, so it runs on one column, not %d", p, st.k)
	}
	return runColumns(ctx, g, p, st, cfg, ws, opts)
}
