package algorithms

import (
	"time"

	"graphmat"
)

// Observer is a per-superstep progress callback, attached to any algorithm's
// run with WithObserver; a non-nil error return stops the run (the engine reports
// reason StoppedByObserver). Iteration numbers count the algorithm's global
// supersteps, even for algorithms that drive the engine one superstep (or
// one phase) at a time.
type Observer = graphmat.Observer

// accumulate folds one superstep's engine stats into a running total (the
// multi-run accumulation every iterative driver repeats). Reason is per-run
// and is set by the driver, not summed.
func accumulate(dst *graphmat.Stats, s graphmat.Stats) {
	dst.Iterations += s.Iterations
	dst.MessagesSent += s.MessagesSent
	dst.EdgesProcessed += s.EdgesProcessed
	dst.Applies += s.Applies
	dst.ActiveSum += s.ActiveSum
	dst.ColumnsProbed += s.ColumnsProbed
	dst.FlatEdges += s.FlatEdges
	dst.PushSupersteps += s.PushSupersteps
	dst.PullSupersteps += s.PullSupersteps
	dst.RowSupersteps += s.RowSupersteps
	dst.Sched.Workers = s.Sched.Workers
	dst.Sched.Tasks += s.Sched.Tasks
	dst.Sched.Steals += s.Sched.Steals
	dst.Sched.BusyNS += s.Sched.BusyNS
}

// session adapts a caller's observer to a driver loop that invokes the
// engine repeatedly (PageRank's one-superstep-at-a-time loop, HITS's
// half-steps, the triangle phases): each engine call restarts its iteration
// count and wall clock, so the session rewrites IterationInfo.Iteration into
// the global superstep number and Total into time since the session began.
type session struct {
	obs   Observer
	step  int
	start time.Time
}

func newSession(obs Observer) *session {
	return &session{obs: obs, start: time.Now()}
}

// options returns the engine options for the next engine call: nil when no
// observer is attached, otherwise a renumbering wrapper.
func (s *session) options() []graphmat.RunOption {
	if s.obs == nil {
		return nil
	}
	return []graphmat.RunOption{graphmat.WithObserver(func(info graphmat.IterationInfo) error {
		s.step++
		info.Iteration = s.step
		info.Total = time.Since(s.start)
		return s.obs(info)
	})}
}
