package algorithms

import (
	"context"
	"math"

	"graphmat"
)

// InfDist marks a vertex SSSP never reached.
const InfDist = float32(math.MaxFloat32)

// SSSPProgram is the program of the paper's appendix (and Figure 3), a
// frontier Bellman-Ford: message = current distance, process = message +
// edge weight, reduce = min, apply = min with activation on improvement
// (equation (8), updating only neighbors of vertices that changed).
type SSSPProgram struct{}

// SendMessage emits the vertex's current distance.
func (SSSPProgram) SendMessage(_ graphmat.VertexID, prop float32) (float32, bool) {
	return prop, true
}

// ProcessMessage extends the path along one edge.
func (SSSPProgram) ProcessMessage(m float32, w float32, _ float32) float32 { return m + w }

// Reduce keeps the shorter path.
func (SSSPProgram) Reduce(a, b float32) float32 { return min(a, b) }

// Apply adopts an improved distance and reactivates the vertex.
func (SSSPProgram) Apply(r float32, _ graphmat.VertexID, prop *float32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}

// Direction performs path traversals only via out-edges (appendix:
// "order = OUT_EDGES").
func (SSSPProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property: the backend's fast path, and what qualifies SSSP
// for multi-source block runs.
func (SSSPProgram) ProcessIgnoresDst() {}

// Semiring declares the float32 (min, +) tropical fold, routing the scalar
// and block column folds through the kernels layer's fused path-fold
// primitives.
func (SSSPProgram) Semiring() graphmat.Semiring { return graphmat.SemiringMinPlusF32 }

// NewSSSPGraph builds the SSSP property graph: self-loops removed, directed
// edges kept as-is with their weights (§5.1). The input is consumed.
func NewSSSPGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[float32, float32], error) {
	return ssspAlgo.newGraph(adj, partitions)
}

// NewSSSPStore is NewSSSPGraph as a versioned store: the same preprocessing
// and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewSSSPStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32], error) {
	return ssspAlgo.newStore(adj, partitions)
}

// RunSSSP computes shortest-path distances from src on a graph built by
// NewSSSPGraph; unreachable vertices report InfDist. Options and session
// contract as in RunBFS (workspace type *graphmat.Workspace[float32,
// float32]); a stopped run returns the best distances found so far. It is
// RunSSSPBatch over one source.
func RunSSSP(ctx context.Context, g *graphmat.Graph[float32, float32], src uint32, opts ...Option) ([]float32, graphmat.Stats, error) {
	return batchOfOne(RunSSSPBatch(ctx, g, []uint32{src}, opts...))
}
