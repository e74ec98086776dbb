// Package algorithms provides the five graph algorithms of the GraphMat
// paper (§3) written as GraphMat vertex programs — PageRank, breadth-first
// search, single-source shortest paths, triangle counting and collaborative
// filtering — plus connected components and degree computation as
// extensions.
//
// Each algorithm exposes three layers:
//
//   - the Program type itself (e.g. SSSPProgram), for users composing their
//     own pipelines;
//   - a New*Graph constructor that applies the paper's dataset preprocessing
//     (§5.1) and builds the property graph;
//   - one runner, Run<Algo>(ctx, g, ...required args, opts...) (e.g.
//     RunSSSP), that initializes vertex state, executes the program and
//     extracts results. Options (options.go) carry everything else: engine
//     configuration, caller-managed scratch, iteration caps, an observer.
//
// Every runner executes as a cancelable, observable session: the
// context.Context stops the engine cooperatively mid-run, and an optional
// Observer receives one progress report per superstep — with iteration
// numbers counting the algorithm's global supersteps even for drivers that
// invoke the engine one superstep at a time. Stopped runs return their
// partial results alongside the stop cause, and Stats.Reason classifies every
// ending. The registry (registry.go) serves the same runners by name: one
// table row per algorithm, one generic Instance over all of them.
//
// Every runner accepts the engine's kernel mode through WithMode/WithConfig
// (and the registry's global "mode" parameter): Pull probes every stored
// column per superstep, Push iterates the frontier (a true SpMSpV), and Auto
// — the default — switches per superstep by frontier density (Ligra's |E|/20
// rule plus a probe-cost rule). Modes are bit-identical in results and differ
// only in speed: push wins high-diameter, sparse-frontier traversals (BFS
// and SSSP on road networks, low-reach sources on scale-free graphs), pull
// wins dense iterative ranking (PageRank, PPR, HITS, where every vertex is
// active every superstep), and Auto tracks the winner, recording its choices
// in Stats.PushSupersteps/PullSupersteps. BFS and reachability also declare
// graphmat.FirstMessageFinal, so their dense pull supersteps gather by
// destination row — skipping visited vertices, stopping at the first parent;
// a multi-source batch scans each row once for all its unvisited columns —
// which Stats.RowSupersteps counts; for those two the work tallies
// (EdgesProcessed, Applies, ColumnsProbed) therefore differ between modes,
// the results never.
//
// The source-parameterized algorithms (bfs, sssp, reachability, widest, ppr)
// also have a Run<Algo>Batch form (batch.go): one block run advancing up to
// 64 sources per adjacency sweep. The block engine folds with the program's
// own ProcessMessage and Reduce, so a program needs nothing beyond the
// graphmat.DstIndependent marker to batch, and every column is bit-identical
// to its single-source run. The batch driver is the only one: RunBFS,
// RunSSSP, RunReachability and RunWidestPath are their batches of one, and
// RunPersonalizedPageRank is the PPR block driver with one column
// personalized to the whole source set. Their vertex state lives in a
// run-owned graphmat.BlockState, never in the graph. A source outside the
// graph is an error from every runner, single or batch.
//
// The benchmark harness builds graphs once and calls runners repeatedly, so
// graph construction time is excluded from measurements exactly as the paper
// excludes load time.
package algorithms
