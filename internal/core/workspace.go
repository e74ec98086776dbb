package core

import (
	"context"
	"fmt"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Workspace holds the engine's reusable scratch state: the sparse message
// vector and the reduction vector. It mirrors the C++ API's
// graph_program_init / graph_program_clear pair (see the paper's appendix):
// drivers that run a program repeatedly — PageRank's per-superstep loop, the
// HITS half-steps — allocate one workspace and pass it to every run instead
// of paying two vertex-sized allocations per call.
type Workspace[M, R any] struct {
	n    int
	kind VectorKind
	x    *sparse.Vector[M]
	y    *sparse.Vector[R]
}

// NewWorkspace allocates scratch for graphs of n vertices, to run under
// configurations whose Config.Vector is kind. Only Bitvector workspaces ever
// serve a run: the Sorted representation exists on the boxed dispatch path
// alone, which manages its own scratch.
func NewWorkspace[M, R any](n int, kind VectorKind) *Workspace[M, R] {
	return &Workspace[M, R]{n: n, kind: kind, x: sparse.NewVector[M](n), y: sparse.NewVector[R](n)}
}

// Size reports the vertex count the workspace was allocated for.
func (ws *Workspace[M, R]) Size() int { return ws.n }

// Kind reports the message-vector representation the workspace holds.
func (ws *Workspace[M, R]) Kind() VectorKind { return ws.kind }

// Check reports whether the workspace can serve a run over an n-vertex graph
// with the given message-vector kind. Pools that hand workspaces to
// back-to-back runs use it to validate a pooled workspace before reuse.
func (ws *Workspace[M, R]) Check(n int, kind VectorKind) error {
	if ws.n != n {
		return fmt.Errorf("core: workspace sized for %d vertices, graph has %d", ws.n, n)
	}
	if ws.kind != kind {
		return fmt.Errorf("core: workspace vector kind %d does not match config %d", ws.kind, kind)
	}
	return nil
}

// Reset clears the scratch vectors. The engine resets them at the start of
// every superstep, so Reset is not required between runs; pools call it when
// recycling a workspace so stale messages never leak across queries.
func (ws *Workspace[M, R]) Reset() {
	ws.x.Reset()
	ws.y.Reset()
}

// RunWithWorkspace is Run with caller-managed scratch. The workspace must
// have been created for the graph's vertex count and the configuration's
// vector kind; mismatches error. The boxed (naive) dispatch path manages its
// own type-erased scratch and ignores the workspace. It is RunContext
// without a context; see RunContext for the cancelable, observable variant.
func RunWithWorkspace[V, E, M, R any, P Program[V, E, M, R]](
	g *graph.Graph[V, E], p P, cfg Config, ws *Workspace[M, R],
) (Stats, error) {
	return RunContext[V, E, M, R, P](context.Background(), g, p, cfg, ws)
}
