package algorithms

import (
	"fmt"

	"graphmat"
)

// This file is the option set of the package's run surface: every algorithm
// has one entrypoint — Run<Algo>(ctx, g, ...required args, opts...), defined
// next to its program — and every entrypoint accepts the same options.
// Options an algorithm has no use for are simply ignored (WithTolerance on BFS
// does nothing). A workspace passed via WithWorkspace must be of the
// algorithm's scratch type (the same value NewScratch-style constructors
// return); a mismatch is an error, nil allocates fresh scratch. A batch
// runner uses it for the chunk of sources whose width it matches.

// Option configures one unified algorithm run.
type Option func(*settings)

// settings is the resolved option set of one run.
type settings struct {
	cfg     graphmat.Config
	ws      any
	obs     Observer
	iters   int
	tol     float64
	restart float64
}

func newSettings(opts []Option) *settings {
	s := &settings{}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	return s
}

// WithConfig sets the full engine configuration (threads, callback
// dispatch, kernel mode).
func WithConfig(cfg graphmat.Config) Option { return func(s *settings) { s.cfg = cfg } }

// WithThreads sets the engine worker count; 0 means GOMAXPROCS. A
// performance knob: results are identical across thread counts.
func WithThreads(n int) Option { return func(s *settings) { s.cfg.Threads = n } }

// WithMode selects the engine's kernel direction (Auto, Pull or Push).
// Like WithThreads, a performance knob that cannot change results.
func WithMode(m graphmat.Mode) Option { return func(s *settings) { s.cfg.Mode = m } }

// WithWorkspace supplies caller-managed engine scratch for repeated runs on
// one graph. The value must be the algorithm's scratch type (for most, a
// *graphmat.Workspace[M, R] of the algorithm's message/reduction types, the
// one-column BlockWorkspace — batch runners take one of any width; for
// triangle counting a *TriangleScratch); nil allocates fresh scratch.
func WithWorkspace(ws any) Option { return func(s *settings) { s.ws = ws } }

// WithObserver attaches a per-superstep progress callback; a non-nil error
// return stops the run.
func WithObserver(obs Observer) Option { return func(s *settings) { s.obs = obs } }

// WithIterations caps iterative algorithms (pagerank, ppr, hits); 0 means
// the algorithm's default. Ignored by traversals that run to convergence.
func WithIterations(n int) Option { return func(s *settings) { s.iters = n } }

// WithTolerance sets the convergence threshold of pagerank/ppr.
func WithTolerance(t float64) Option { return func(s *settings) { s.tol = t } }

// WithRestartProb sets the teleport probability of pagerank/ppr; 0 means
// 0.15.
func WithRestartProb(r float64) Option { return func(s *settings) { s.restart = r } }

// callerWorkspace returns the workspace passed via WithWorkspace: nil when
// there is none (a typed nil pointer included), an error when its type does
// not fit.
func callerWorkspace[M, R any](set *settings) (*graphmat.BlockWorkspace[M, R], error) {
	ws, ok := set.ws.(*graphmat.BlockWorkspace[M, R])
	if !ok && set.ws != nil {
		return nil, fmt.Errorf("algorithms: workspace type %T does not belong to this algorithm", set.ws)
	}
	return ws, nil
}

// settingsWorkspace resolves a one-column run's engine workspace: the
// caller's when its type fits, fresh scratch when there is none.
func settingsWorkspace[M, R any](n int, set *settings) (*graphmat.Workspace[M, R], error) {
	ws, err := callerWorkspace[M, R](set)
	if ws == nil && err == nil {
		ws = graphmat.NewWorkspace[M, R](n, graphmat.Bitvector)
	}
	return ws, err
}

// rankDefaults resolves the zero values of the ranking options (pagerank,
// ppr): teleport probability 0.15, iteration cap 100. A negative cap is the
// default too, as for hits: a rank run is always capped.
func (s *settings) rankDefaults() (restart float64, maxIters int) {
	restart, maxIters = s.restart, s.iters
	if restart == 0 {
		restart = 0.15
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	return restart, maxIters
}
