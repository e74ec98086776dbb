package algorithms

import (
	"context"
	"math"

	"graphmat"
)

// PRVertex is the PageRank vertex state: the current rank and the
// precomputed reciprocal out-degree (SendMessage has no graph access, so the
// degree must live in the vertex property — the C++ implementation does the
// same).
type PRVertex struct {
	Rank   float64
	InvDeg float64
}

// PageRankProgram implements the paper's equation (1):
//
//	PRₜ₊₁(v) = r + (1−r) · Σ_{(u,v)∈E} PRₜ(u)/degree(u)
//
// Message: PR(u)/degree(u). Process: identity. Reduce: sum. Apply: the
// equation, activating the vertex when the rank moved more than Tolerance.
type PageRankProgram struct {
	// RestartProb is r, the random-surf probability.
	RestartProb float64
	// Tolerance bounds the rank change below which a vertex deactivates;
	// 0 keeps every receiving vertex active (run a fixed iteration count).
	Tolerance float64
}

// SendMessage emits rank/degree; sinks (out-degree 0) send nothing.
func (p PageRankProgram) SendMessage(_ graphmat.VertexID, prop PRVertex) (float64, bool) {
	if prop.InvDeg == 0 {
		return 0, false
	}
	return prop.Rank * prop.InvDeg, true
}

// ProcessMessage passes the contribution through unchanged.
func (p PageRankProgram) ProcessMessage(m float64, _ float32, _ PRVertex) float64 { return m }

// Reduce sums contributions.
func (p PageRankProgram) Reduce(a, b float64) float64 { return a + b }

// Apply computes the new rank and reports whether it moved beyond Tolerance.
func (p PageRankProgram) Apply(sum float64, _ graphmat.VertexID, prop *PRVertex) bool {
	next := p.RestartProb + (1-p.RestartProb)*sum
	changed := math.Abs(next-prop.Rank) > p.Tolerance
	prop.Rank = next
	return changed
}

// Direction scatters rank along out-edges.
func (p PageRankProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property, enabling the backend's fast path.
func (PageRankProgram) ProcessIgnoresDst() {}

// ReducesBySumF64 declares the (+, passthrough) float64 fold, routing the
// column folds through the SIMD kernel backends.
func (PageRankProgram) ReducesBySumF64() {}

// NewPageRankGraph builds the PageRank property graph from adjacency triples
// (paper preprocessing: self-loops removed, edges kept directed). The input
// is consumed.
func NewPageRankGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[PRVertex, float32], error) {
	return pagerankAlgo.newGraph(adj, partitions)
}

// NewPageRankStore is NewPageRankGraph as a versioned store: the same
// preprocessing and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewPageRankStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[PRVertex, float32], error) {
	return pagerankAlgo.newStore(adj, partitions)
}

// RunPageRank computes PageRank on a graph built by NewPageRankGraph,
// returning the final rank per vertex. Vertex state is (re)initialized, so
// the same graph can be reused across runs. Options: WithIterations (0 means
// 100), WithTolerance (0 runs exactly the iteration cap), WithRestartProb (0
// means 0.15), plus the engine options (workspace type
// *graphmat.Workspace[float64, float64] — one workspace serves the whole
// superstep loop, graph_program_init in the paper's appendix).
//
// Equation (1) sums contributions from *every* vertex each iteration, so the
// runner re-activates all vertices before each superstep (the paper's
// PageRank likewise has every vertex participating each iteration — that is
// why Figure 4a can report a stable time per iteration). Convergence is
// detected when no vertex's rank moves beyond the tolerance.
//
// The run is a cancelable, observable session: ctx cancellation or deadline
// stops it between (or within) supersteps, and the observer receives one
// report per superstep. On a stopped run the returned ranks are the partial
// state at the stop and the error is the stop cause; Stats.Reason classifies
// how the run ended either way.
func RunPageRank(ctx context.Context, g *graphmat.Graph[PRVertex, float32], opts ...Option) ([]float64, graphmat.Stats, error) {
	set := newSettings(opts)
	ws, err := settingsWorkspace[float64, float64](int(g.NumVertices()), set)
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	restart, maxIters := set.rankDefaults()
	g.InitProps(func(v uint32) PRVertex {
		p := PRVertex{Rank: 1}
		if d := g.OutDegree(v); d > 0 {
			p.InvDeg = 1 / float64(d)
		}
		return p
	})
	prog := PageRankProgram{RestartProb: restart, Tolerance: set.tol}
	cfg := set.cfg
	cfg.MaxIterations = 1
	sess := newSession(set.obs)
	var stats graphmat.Stats
	stats.Reason = graphmat.MaxIterations
	for it := 0; it < maxIters; it++ {
		g.SetAllActive()
		s, err := graphmat.RunContext(ctx, g, prog, cfg, ws, sess.options()...)
		stats.Add(s)
		if err != nil {
			stats.Reason = s.Reason
			return ranksOf(g), stats, err
		}
		// After the superstep the active set holds exactly the vertices
		// whose rank moved beyond Tolerance.
		if !g.Active().Any() {
			stats.Reason = graphmat.Converged
			break
		}
	}
	return ranksOf(g), stats, nil
}

func ranksOf(g *graphmat.Graph[PRVertex, float32]) []float64 {
	ranks := make([]float64, g.NumVertices())
	for v := range ranks {
		ranks[v] = g.Prop(uint32(v)).Rank
	}
	return ranks
}
