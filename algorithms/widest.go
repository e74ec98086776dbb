package algorithms

import (
	"context"
	"math"

	"graphmat"
)

// WidestSourceCap is the source's own path width: effectively unbounded.
// math.MaxFloat32 rather than +Inf so results survive JSON encoding.
const WidestSourceCap = float32(math.MaxFloat32)

// WidestPathProgram computes widest (bottleneck) paths over the (max, min)
// semiring: the width of a path is its narrowest edge, and a vertex's
// property is the widest width over all paths from the source. Unreachable
// vertices stay at 0. Like SSSP it is a frontier fixpoint — a vertex
// reactivates whenever its best width improves.
type WidestPathProgram struct{}

// SendMessage emits the vertex's current best width.
func (WidestPathProgram) SendMessage(_ graphmat.VertexID, prop float32) (float32, bool) {
	return prop, true
}

// ProcessMessage narrows the path by the edge's capacity.
func (WidestPathProgram) ProcessMessage(m float32, w float32, _ float32) float32 { return min(m, w) }

// Reduce keeps the wider path.
func (WidestPathProgram) Reduce(a, b float32) float32 { return max(a, b) }

// Apply adopts an improved width and reactivates the vertex.
func (WidestPathProgram) Apply(r float32, _ graphmat.VertexID, prop *float32) bool {
	if r > *prop {
		*prop = r
		return true
	}
	return false
}

// Direction follows out-edges, like SSSP.
func (WidestPathProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares the fast path and qualifies the program for
// multi-source block runs.
func (WidestPathProgram) ProcessIgnoresDst() {}

// ReducesByMaxMinF32 declares the float32 (max, min) bottleneck fold,
// routing the scalar and block column folds through the kernels layer's
// fused path-fold primitives.
func (WidestPathProgram) ReducesByMaxMinF32() {}

// NewWidestPathGraph builds the widest-path property graph: self-loops
// removed, directed weighted edges kept as-is (weights are capacities). The
// input is consumed.
func NewWidestPathGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[float32, float32], error) {
	return widestAlgo.newGraph(adj, partitions)
}

// NewWidestPathStore is NewWidestPathGraph as a versioned store.
func NewWidestPathStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32, float32], error) {
	return widestAlgo.newStore(adj, partitions)
}

// RunWidestPath computes bottleneck path widths from src: out[v] is the
// maximum over paths src→v of the minimum edge weight along the path, 0 for
// unreachable vertices and WidestSourceCap at src itself. Options:
// WithConfig/WithThreads/WithMode, WithWorkspace
// (*graphmat.Workspace[float32, float32]), WithObserver.
func RunWidestPath(ctx context.Context, g *graphmat.Graph[float32, float32], src uint32, opts ...Option) ([]float32, graphmat.Stats, error) {
	return runTraversal(ctx, g, WidestPathProgram{}, src, 0, WidestSourceCap, newSettings(opts))
}
