package algorithms

import (
	"context"
	"math"

	"graphmat"
)

// Unreached marks a vertex BFS/SSSP never visited.
const Unreached = math.MaxUint32

// BFSProgram implements the paper's equation (2): Distance(v) =
// min(Distance(v), t+1), becoming active on change. Message: the sender's
// distance. Process: message+1. Reduce: min. Apply: min with activation.
type BFSProgram struct{}

// SendMessage emits the vertex's current distance.
func (BFSProgram) SendMessage(_ graphmat.VertexID, prop uint32) (uint32, bool) { return prop, true }

// ProcessMessage advances the frontier one hop.
func (BFSProgram) ProcessMessage(m uint32, _ float32, _ uint32) uint32 { return m + 1 }

// Reduce keeps the smaller distance.
func (BFSProgram) Reduce(a, b uint32) uint32 { return min(a, b) }

// Apply adopts an improved distance and reactivates the vertex.
func (BFSProgram) Apply(r uint32, _ graphmat.VertexID, prop *uint32) bool {
	if r < *prop {
		*prop = r
		return true
	}
	return false
}

// Direction scatters along out-edges (BFS inputs are symmetrized, §5.1).
func (BFSProgram) Direction() graphmat.Direction { return graphmat.Out }

// ProcessIgnoresDst declares that ProcessMessage never reads the
// destination property: the backend's fast path, and what lets one edge
// traversal serve every source column of a multi-source block run.
func (BFSProgram) ProcessIgnoresDst() {}

// Unsettled declares graphmat.FirstMessageFinal: a vertex waits for its
// first message while it is Unreached. The promise holds for a
// level-synchronous traversal — every active vertex at one distance, every
// other visited vertex no farther, the rest Unreached, which is how RunBFS
// and the registry start one: all of a superstep's messages then carry the
// same level, no smaller than any visited vertex's distance, so Apply
// ignores them there and min over them is the first.
func (BFSProgram) Unsettled(prop uint32) bool { return prop == Unreached }

// Semiring declares the boolean fold: under the same level-synchronous start,
// every message of a superstep carries the current level, so within a source
// column each processes to one value, over any edge. Every run then folds
// masks, not levels: a single-source run one bit per edge, and its row walk
// reads sources only; a batch of two or more sources one column mask per
// edge instead of one level per (edge, source). Apply writes the column's
// level, computed once per superstep, to the vertices that first reached it.
func (BFSProgram) Semiring() graphmat.Semiring { return graphmat.SemiringBoolean }

// NewBFSGraph builds the BFS property graph, applying the paper's
// preprocessing: self-loops removed and the edge set symmetrized ("we
// replicate edges ... to obtain a symmetric graph"). The input is consumed.
func NewBFSGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[uint32, float32], error) {
	return bfsAlgo.newGraph(adj, partitions)
}

// NewBFSStore is NewBFSGraph as a versioned store: the same preprocessing
// and epoch-0 graph, plus live edge updates via ApplyEdges.
func NewBFSStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32], error) {
	return bfsAlgo.newStore(adj, partitions)
}

// RunBFS computes hop distances from root on a graph built by NewBFSGraph;
// unreachable vertices report Unreached. Options: WithConfig/WithThreads/
// WithMode, WithWorkspace (*graphmat.Workspace[uint32, uint32]),
// WithObserver. The run is a cancelable, observable session: ctx stops the
// traversal cooperatively, the observer receives one report per superstep.
// A stopped run returns the partial distances reached so far together with
// the stop cause; Stats.Reason classifies the ending. A root outside the
// graph is an error. RunBFS is RunBFSBatch over one source: the traversal's
// vertex state is a run-owned one-column BlockState, and g's own vertex
// state is left alone.
func RunBFS(ctx context.Context, g *graphmat.Graph[uint32, float32], root uint32, opts ...Option) ([]uint32, graphmat.Stats, error) {
	return batchOfOne(RunBFSBatch(ctx, g, []uint32{root}, opts...))
}
