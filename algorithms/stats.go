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
