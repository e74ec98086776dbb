package algorithms

import (
	"context"
	"errors"

	"graphmat"
)

// This file is the multi-source batch layer: one engine block run advancing
// up to graphmat.MaxBlockSources independent source columns per adjacency
// sweep, with wider batches split into word-sized blocks. It is the only
// driver of the source-parameterized algorithms: a single-source run is a
// batch of one. Every batched algorithm is bit-identical per source to the
// corresponding single-source run — the block engine folds with the
// program's own ProcessMessage and Reduce in the scalar engine's order, and
// the package's differential suite asserts it end to end — so batching is
// purely a throughput knob:
// the column probes and edge walks that dominate a traversal are paid once
// per edge instead of once per (edge, source). What a single-source run
// gains from its program's markers a batch gains too, and more: bfs and
// reachability batches (graphmat.SemiringBoolean with FirstMessageFinal)
// fold no values at all — one OR of column masks per edge, and by
// destination row on their dense supersteps, all columns per row scan — and
// sssp and widest batches fold each edge's columns eight SIMD lanes at a
// time.

// ErrBatchUnsupported reports a RunBatch call on an algorithm with no
// multi-source form (pagerank, components, triangles, hits — their runs are
// not parameterized by a source vertex).
var ErrBatchUnsupported = errors.New("algorithms: algorithm does not support batched multi-source runs")

// BatchResult is the uniform output of a multi-source registry run: one
// value series per source, plus the aggregate engine stats of the whole
// batch and the epoch the batch was pinned to. Values[i] corresponds to
// Sources[i] and is laid out exactly like the single-source Result.Values.
type BatchResult struct {
	Sources []uint32       `json:"sources"`
	Values  [][]float64    `json:"values"`
	Stats   graphmat.Stats `json:"stats"`
	Epoch   uint64         `json:"epoch"`
}

// fullMask returns the k-bit live-column mask.
func fullMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// runBlocks is the chunk loop under every source-parameterized runner, at
// every width: the columns split into blocks of at most
// graphmat.MaxBlockSources, each block's own BlockState seeded by seed,
// driven by run and read out by extract (one series per column). The
// caller's workspace (WithWorkspace) serves the block whose width matches it;
// the others get fresh scratch. Stats sum over the blocks, and Reason is
// Converged unless some block ended otherwise. A stop ends the loop but not
// the read-out: a stopped block yields each column's partial state and a
// block that never ran its seeded one, so every column has its series.
func runBlocks[V, M, R, C, T any](
	g *graphmat.Edges[float32], cols []C, set *settings,
	seed func(st *graphmat.BlockState[V], chunk []C),
	run func(st *graphmat.BlockState[V], ws *graphmat.BlockWorkspace[M, R]) (graphmat.Stats, error),
	extract func(st *graphmat.BlockState[V]) [][]T,
) ([][]T, graphmat.Stats, error) {
	caller, err := callerWorkspace[M, R](set)
	if err != nil {
		return nil, graphmat.Stats{}, err
	}
	n := int(g.NumVertices())
	out := make([][]T, len(cols))
	var stats graphmat.Stats
	stats.Reason = graphmat.Converged
	for lo := 0; lo < len(cols); lo += graphmat.MaxBlockSources {
		hi := min(lo+graphmat.MaxBlockSources, len(cols))
		st := graphmat.NewBlockState[V](n, hi-lo)
		seed(st, cols[lo:hi])
		if err == nil {
			ws := caller
			if ws == nil || ws.Width() != hi-lo {
				ws = graphmat.NewBlockWorkspace[M, R](n, hi-lo)
			}
			var s graphmat.Stats
			s, err = run(st, ws)
			stats.Add(s)
			if s.Reason != graphmat.Converged {
				stats.Reason = s.Reason
			}
		}
		copy(out[lo:hi], extract(st))
	}
	return out, stats, err
}

// traversal returns the one driver of the traversal family (BFS, SSSP,
// reachability, widest paths) for program p: property, message and reduction
// types coincide, every column starts as {unreached everywhere, sourceVal at
// its source} with its source alone active, and the block run iterates until
// every column's frontier dies. The driver runs on edges alone — all vertex
// state is runBlocks' — and a single-source runner is its batch of one.
func traversal[V any, P interface {
	graphmat.Program[V, float32, V, V]
	graphmat.DstIndependent
}](p P, unreached, sourceVal V) func(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([][]V, graphmat.Stats, error) {
	return func(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([][]V, graphmat.Stats, error) {
		if err := checkSources(sources, g.NumVertices(), "source"); err != nil {
			return nil, graphmat.Stats{}, err
		}
		set := newSettings(opts)
		sess := newSession(set.obs)
		return runBlocks(g, sources, set,
			func(st *graphmat.BlockState[V], chunk []uint32) {
				st.SetAllProps(unreached)
				for s, src := range chunk {
					st.SetProp(src, s, sourceVal)
					st.Activate(src, s)
				}
			},
			func(st *graphmat.BlockState[V], ws *graphmat.BlockWorkspace[V, V]) (graphmat.Stats, error) {
				return graphmat.RunBlockContext(ctx, g, p, st, set.cfg, ws, sess.options()...)
			},
			(*graphmat.BlockState[V]).Columns)
	}
}

// The traversal family's drivers, shared by the Run*Batch functions and the
// registry rows.
var (
	bfsBatch          = traversal[uint32](BFSProgram{}, Unreached, 0)
	ssspBatch         = traversal[float32](SSSPProgram{}, InfDist, 0)
	reachabilityBatch = traversal[uint32](ReachabilityProgram{}, 0, 1)
	widestBatch       = traversal[float32](WidestPathProgram{}, 0, WidestSourceCap)
)

// batchOfOne is a single-source runner's result: the one series of its
// batch of one, or none when the batch was rejected before it ran.
func batchOfOne[T any](out [][]T, stats graphmat.Stats, err error) ([]T, graphmat.Stats, error) {
	if len(out) == 0 {
		return nil, stats, err
	}
	return out[0], stats, err
}

// RunBFSBatch computes hop distances from every source in one multi-source
// block run (chunks of up to graphmat.MaxBlockSources share each adjacency
// sweep). out[i][v] is the distance from sources[i] to v, bit-identical to
// RunBFS(ctx, g, sources[i]). Engine options apply (WithConfig/WithThreads/
// WithMode, WithObserver, WithWorkspace: a *graphmat.BlockWorkspace[uint32,
// uint32] serves the chunk of its width). A stopped run returns every
// source's partial distances with the stop cause.
func RunBFSBatch(ctx context.Context, g *graphmat.Graph[uint32, float32], sources []uint32, opts ...Option) ([][]uint32, graphmat.Stats, error) {
	return bfsBatch(ctx, g.Edges, sources, opts...)
}

// RunSSSPBatch computes shortest-path distances from every source in one
// multi-source block run; out[i] is bit-identical to RunSSSP from
// sources[i]. Options as in RunBFSBatch.
func RunSSSPBatch(ctx context.Context, g *graphmat.Graph[float32, float32], sources []uint32, opts ...Option) ([][]float32, graphmat.Stats, error) {
	return ssspBatch(ctx, g.Edges, sources, opts...)
}

// RunReachabilityBatch computes directed reachability from every source in
// one multi-source block run; out[i] is bit-identical to RunReachability
// from sources[i]. Options as in RunBFSBatch.
func RunReachabilityBatch(ctx context.Context, g *graphmat.Graph[uint32, float32], sources []uint32, opts ...Option) ([][]uint32, graphmat.Stats, error) {
	return reachabilityBatch(ctx, g.Edges, sources, opts...)
}

// RunWidestPathBatch computes bottleneck path widths from every source in
// one multi-source block run; out[i] is bit-identical to RunWidestPath from
// sources[i]. Options as in RunBFSBatch.
func RunWidestPathBatch(ctx context.Context, g *graphmat.Graph[float32, float32], sources []uint32, opts ...Option) ([][]float32, graphmat.Stats, error) {
	return widestBatch(ctx, g.Edges, sources, opts...)
}

// RunPersonalizedPageRankBatch runs one single-source personalized PageRank
// per source — k independent personalization vectors advanced together, one
// adjacency sweep per superstep serving every still-unconverged column.
// out[i] is bit-identical to RunPersonalizedPageRank(ctx, g, []uint32{
// sources[i]}, ...): each column converges (or hits the iteration cap) on
// its own schedule and then drops out of the sweep. Options: WithIterations/
// WithTolerance/WithRestartProb plus the engine options, WithWorkspace
// (*graphmat.BlockWorkspace[float64, float64]) as in RunBFSBatch.
func RunPersonalizedPageRankBatch(ctx context.Context, g *graphmat.Graph[PPRVertex, float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error) {
	return pprBatch(ctx, g.Edges, sources, opts...)
}

// pprBatch is RunPersonalizedPageRankBatch on edges alone.
func pprBatch(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error) {
	if err := checkSources(sources, g.NumVertices(), "source"); err != nil {
		return nil, graphmat.Stats{}, err
	}
	sets := make([][]uint32, len(sources))
	for s := range sources {
		sets[s] = sources[s : s+1]
	}
	return runPPR(ctx, g, sets, newSettings(opts))
}
