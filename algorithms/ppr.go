package algorithms

import (
	"context"
	"errors"
	"math"

	"graphmat"
)

// PersonalizedPageRankProgram is random-walk-with-restart PageRank toward a
// source set: rank teleports back to the sources instead of uniformly (an
// extension beyond the paper's five algorithms; the C++ GraphMat release
// ships the same variant). The program reuses the PR vertex layout plus a
// per-vertex restart weight folded into Apply.
type PersonalizedPageRankProgram struct {
	// RestartProb is the teleport probability r.
	RestartProb float64
	// Tolerance deactivates vertices whose rank settles.
	Tolerance float64
}

// PPRVertex is the personalized PageRank vertex state.
type PPRVertex struct {
	Rank    float64
	InvDeg  float64
	Restart float64 // r for source vertices, 0 elsewhere
}

// SendMessage emits rank/degree; sinks send nothing.
func (p PersonalizedPageRankProgram) SendMessage(_ graphmat.VertexID, prop PPRVertex) (float64, bool) {
	if prop.InvDeg == 0 {
		return 0, false
	}
	return prop.Rank * prop.InvDeg, true
}

// ProcessMessage passes the contribution through.
func (PersonalizedPageRankProgram) ProcessMessage(m float64, _ float32, _ PPRVertex) float64 {
	return m
}

// Reduce sums contributions.
func (PersonalizedPageRankProgram) Reduce(a, b float64) float64 { return a + b }

// Apply folds the teleport mass: rank = restart + (1-r)·sum, where restart
// is nonzero only at the personalization sources.
func (p PersonalizedPageRankProgram) Apply(sum float64, _ graphmat.VertexID, prop *PPRVertex) bool {
	next := prop.Restart + (1-p.RestartProb)*sum
	changed := math.Abs(next-prop.Rank) > p.Tolerance
	prop.Rank = next
	return changed
}

// Direction scatters rank along out-edges.
func (PersonalizedPageRankProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares the fast path and qualifies PPR for
// multi-source block runs.
func (PersonalizedPageRankProgram) ProcessIgnoresDst() {}

// ReducesBySumF64 declares the (+, passthrough) float64 fold — for both the
// scalar SpMV and the multi-source SpMM — routing the column folds through
// the SIMD kernel backends.
func (PersonalizedPageRankProgram) ReducesBySumF64() {}

// NewPersonalizedPageRankGraph builds the PPR property graph (self-loops
// removed, edges kept directed). The input is consumed.
func NewPersonalizedPageRankGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[PPRVertex, float32], error) {
	return pprAlgo.newGraph(adj, partitions)
}

// NewPersonalizedPageRankStore is NewPersonalizedPageRankGraph as a
// versioned store: the same preprocessing and epoch-0 graph, plus live edge
// updates via ApplyEdges.
func NewPersonalizedPageRankStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[PPRVertex, float32], error) {
	return pprAlgo.newStore(adj, partitions)
}

// RunPersonalizedPageRank ranks vertices by proximity to the source set on a
// graph built by NewPersonalizedPageRankGraph (or any Graph[PPRVertex,
// float32]). Ranks are a probability distribution over vertices (they sum to
// ~1 on source-reachable graphs). An empty source list or a source outside
// the graph is an error. Options and session contract as in RunPageRank.
func RunPersonalizedPageRank(ctx context.Context, g *graphmat.Graph[PPRVertex, float32], sources []uint32, opts ...Option) ([]float64, graphmat.Stats, error) {
	set := newSettings(opts)
	if len(sources) == 0 {
		return nil, graphmat.Stats{}, errors.New("algorithms: personalized pagerank needs at least one source vertex")
	}
	if err := checkSources(sources, g.NumVertices(), "personalization"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	ws, err := settingsWorkspace[float64, float64](int(g.NumVertices()), set)
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	restart, maxIters := set.rankDefaults()
	perSource := restart / float64(len(sources))
	// Every vertex starts with no rank and no restart weight; then the
	// (few) sources are patched in. A duplicated source is assigned, not
	// accumulated, and still counts in len(sources).
	g.InitProps(func(v uint32) PPRVertex {
		p := PPRVertex{}
		if d := g.OutDegree(v); d > 0 {
			p.InvDeg = 1 / float64(d)
		}
		return p
	})
	for _, s := range sources {
		p := g.Prop(s)
		p.Restart = perSource
		p.Rank = 1 / float64(len(sources))
		g.SetProp(s, p)
	}
	prog := PersonalizedPageRankProgram{RestartProb: restart, Tolerance: set.tol}
	cfg := set.cfg
	cfg.MaxIterations = 1
	sess := newSession(set.obs)
	var stats graphmat.Stats
	stats.Reason = graphmat.MaxIterations
	pprRanks := func() []float64 {
		ranks := make([]float64, g.NumVertices())
		for v := range ranks {
			ranks[v] = g.Prop(uint32(v)).Rank
		}
		return ranks
	}
	for it := 0; it < maxIters; it++ {
		g.SetAllActive()
		s, err := graphmat.RunContext(ctx, g, prog, cfg, ws, sess.options()...)
		stats.Add(s)
		if err != nil {
			stats.Reason = s.Reason
			return pprRanks(), stats, err
		}
		if !g.Active().Any() {
			stats.Reason = graphmat.Converged
			break
		}
	}
	return pprRanks(), stats, nil
}
