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
	// Tolerance decides convergence as PageRankProgram.Tolerance does, per
	// column: a column settles on the first superstep in which none of its
	// ranks moves by more.
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

// Semiring declares the (+, passthrough) float64 fold — for both the scalar
// SpMV and the multi-source SpMM — routing the column folds through the SIMD
// kernel backends.
func (PersonalizedPageRankProgram) Semiring() graphmat.Semiring { return graphmat.SemiringSumF64 }

// KeepsAllVerticesActive declares graphmat.AllVerticesActive: every vertex
// of a column that has not settled sends on every superstep.
func (PersonalizedPageRankProgram) KeepsAllVerticesActive() {}

// NewPersonalizedPageRankGraph builds the PPR property graph (self-loops
// removed, edges kept directed). The input is consumed.
func NewPersonalizedPageRankGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[PPRVertex, float32], error) {
	return pprAlgo.newGraph(adj, partitions)
}

// NewPersonalizedPageRankStore is NewPersonalizedPageRankGraph as a
// versioned store: the same preprocessing and epoch-0 graph, plus live edge
// updates via ApplyEdges.
func NewPersonalizedPageRankStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32], error) {
	return pprAlgo.newStore(adj, partitions)
}

// RunPersonalizedPageRank ranks vertices by proximity to the source set on a
// graph built by NewPersonalizedPageRankGraph (or any Graph[PPRVertex,
// float32]). Ranks are a probability distribution over vertices (they sum to
// ~1 on source-reachable graphs). An empty source list or a source outside
// the graph is an error. Options and session contract as in RunPageRank,
// except that the workspace type is *graphmat.Workspace[float64, float64]
// and g's own vertex state is left alone: the run is the one-column case
// of RunPersonalizedPageRankBatch's driver, its column personalized to the
// whole set.
func RunPersonalizedPageRank(ctx context.Context, g *graphmat.Graph[PPRVertex, float32], sources []uint32, opts ...Option) ([]float64, graphmat.Stats, error) {
	return pprRun(ctx, g.Edges, sources, opts...)
}

// pprRun is RunPersonalizedPageRank on edges alone.
func pprRun(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([]float64, graphmat.Stats, error) {
	if len(sources) == 0 {
		return nil, graphmat.Stats{}, errors.New("algorithms: personalized pagerank needs at least one source vertex")
	}
	if err := checkSources(sources, g.NumVertices(), "personalization"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	return batchOfOne(runPPR(ctx, g, [][]uint32{sources}, newSettings(opts)))
}

// runPPR is the personalized PageRank driver at every width: column s ranks
// toward personalization set sets[s]. Every member of a set starts with
// 1/len(set) of the rank and carries restart/len(set) of teleport weight; a
// duplicated member is assigned its share, not accumulated, and still counts
// in len(set). Each block is one engine run from every vertex active: the
// program keeps every vertex of a still-unconverged column active, a column
// whose ranks all settled within Tolerance drops out of the sweep, and the
// run ends when every column has, or at the iteration cap.
func runPPR(ctx context.Context, g *graphmat.Edges[float32], sets [][]uint32, set *settings) ([][]float64, graphmat.Stats, error) {
	n := int(g.NumVertices())
	restart, maxIters := set.rankDefaults()
	inv := make([]float64, n)
	for v := 0; v < n; v++ {
		if d := g.OutDegree(uint32(v)); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	prog := PersonalizedPageRankProgram{RestartProb: restart, Tolerance: set.tol}
	cfg := set.cfg
	cfg.MaxIterations = maxIters
	sess := newSession(set.obs)
	return runBlocks(g, sets, set,
		func(st *graphmat.BlockState[PPRVertex], chunk [][]uint32) {
			st.InitProps(func(v uint32, _ int) PPRVertex { return PPRVertex{InvDeg: inv[v]} })
			for s, members := range chunk {
				share := float64(len(members))
				for _, v := range members {
					st.SetProp(v, s, PPRVertex{Rank: 1 / share, InvDeg: inv[v], Restart: restart / share})
				}
			}
		},
		func(st *graphmat.BlockState[PPRVertex], ws *graphmat.BlockWorkspace[float64, float64]) (graphmat.Stats, error) {
			st.ActivateAllMask(fullMask(st.Width()))
			return graphmat.RunBlockContext(ctx, g, prog, st, cfg, ws, sess.options()...)
		},
		func(st *graphmat.BlockState[PPRVertex]) [][]float64 {
			ranks := make([][]float64, st.Width())
			for s := range ranks {
				ranks[s] = make([]float64, n)
			}
			for v := 0; v < n; v++ { // one pass over the property rows
				for s := range ranks {
					ranks[s][v] = st.Prop(uint32(v), s).Rank
				}
			}
			return ranks
		})
}
