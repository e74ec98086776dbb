package algorithms

import (
	"context"
	"math"

	"graphmat"
)

// HITSVertex holds a vertex's hub and authority scores.
type HITSVertex struct {
	Hub, Auth float64
}

// hitsAuthProg is the authority half-step of HITS (Kleinberg): every vertex
// broadcasts its hub score along out-edges; receivers sum into their
// authority score. An extension beyond the paper's five algorithms that
// exercises the engine's In/Out direction machinery: the two half-steps
// traverse the matrix in opposite orientations, exactly the Gᵀ/G pair the
// graph maintains.
type hitsAuthProg struct{}

func (hitsAuthProg) SendMessage(_ graphmat.VertexID, prop HITSVertex) (float64, bool) {
	return prop.Hub, true
}
func (hitsAuthProg) ProcessMessage(m float64, _ float32, _ HITSVertex) float64 { return m }
func (hitsAuthProg) Reduce(a, b float64) float64                               { return a + b }
func (hitsAuthProg) Apply(r float64, _ graphmat.VertexID, prop *HITSVertex) bool {
	prop.Auth = r
	return false
}
func (hitsAuthProg) Direction() graphmat.Direction { return graphmat.Out }
func (hitsAuthProg) ProcessIgnoresDst()            {}
func (hitsAuthProg) ReducesBySumF64()              {}

// hitsHubProg is the hub half-step: every vertex broadcasts its authority
// score *backwards* along its in-edges (Direction In), so a hub accumulates
// the authority of the pages it points to.
type hitsHubProg struct{}

func (hitsHubProg) SendMessage(_ graphmat.VertexID, prop HITSVertex) (float64, bool) {
	return prop.Auth, true
}
func (hitsHubProg) ProcessMessage(m float64, _ float32, _ HITSVertex) float64 { return m }
func (hitsHubProg) Reduce(a, b float64) float64                               { return a + b }
func (hitsHubProg) Apply(r float64, _ graphmat.VertexID, prop *HITSVertex) bool {
	prop.Hub = r
	return false
}
func (hitsHubProg) Direction() graphmat.Direction { return graphmat.In }
func (hitsHubProg) ProcessIgnoresDst()            {}
func (hitsHubProg) ReducesBySumF64()              {}

// NewHITSGraph builds the HITS property graph (self-loops removed, both
// traversal directions materialized). The input is consumed.
func NewHITSGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[HITSVertex, float32], error) {
	return hitsAlgo.newGraph(adj, partitions)
}

// NewHITSStore is NewHITSGraph as a versioned store: the same preprocessing
// and epoch-0 graph (both directions materialized), plus live edge updates
// via ApplyEdges.
func NewHITSStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[HITSVertex, float32], error) {
	return hitsAlgo.newStore(adj, partitions)
}

// RunHITS computes hub and authority scores on a graph built by
// NewHITSGraph, with iterations of the two half-steps, L2-normalizing after
// each (the standard formulation). Returns the final scores indexed by
// vertex. Options: WithIterations (0 means 20) plus the engine options; both
// half-steps carry float64 messages, so one *graphmat.Workspace[float64,
// float64] serves the whole run.
//
// The run is a cancelable, observable session. The observer sees one report
// per engine superstep — two per HITS iteration (the authority half-step,
// then the hub half-step). A stopped run returns the scores as of the stop
// together with the stop cause.
func RunHITS(ctx context.Context, g *graphmat.Graph[HITSVertex, float32], opts ...Option) ([]HITSVertex, graphmat.Stats, error) {
	set := newSettings(opts)
	ws, err := settingsWorkspace[float64, float64](int(g.NumVertices()), set)
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	iters := set.iters
	if iters <= 0 {
		iters = 20
	}
	g.SetAllProps(HITSVertex{Hub: 1, Auth: 1})
	cfg := set.cfg
	cfg.MaxIterations = 1

	props := g.Props()
	normalize := func(get func(*HITSVertex) *float64) {
		var sum float64
		for i := range props {
			v := *get(&props[i])
			sum += v * v
		}
		if sum == 0 {
			return
		}
		inv := 1 / math.Sqrt(sum)
		for i := range props {
			*get(&props[i]) *= inv
		}
	}

	sess := newSession(set.obs)
	scores := func() []HITSVertex {
		out := make([]HITSVertex, len(props))
		copy(out, props)
		return out
	}
	var stats graphmat.Stats
	stats.Reason = graphmat.MaxIterations
	for it := 0; it < iters; it++ {
		// A vertex that receives no messages is never Applied, so the
		// accumulated field must be cleared up front: a page nobody links to
		// has authority 0, not its stale previous score.
		for i := range props {
			props[i].Auth = 0
		}
		g.SetAllActive()
		s, err := graphmat.RunContext(ctx, g, hitsAuthProg{}, cfg, ws, sess.options()...)
		stats.Add(s)
		if err != nil {
			stats.Reason = s.Reason
			return scores(), stats, err
		}
		normalize(func(v *HITSVertex) *float64 { return &v.Auth })
		for i := range props {
			props[i].Hub = 0
		}
		g.SetAllActive()
		s, err = graphmat.RunContext(ctx, g, hitsHubProg{}, cfg, ws, sess.options()...)
		stats.Add(s)
		if err != nil {
			stats.Reason = s.Reason
			return scores(), stats, err
		}
		normalize(func(v *HITSVertex) *float64 { return &v.Hub })
	}
	return scores(), stats, nil
}
