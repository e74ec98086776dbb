// Package core implements the GraphMat engine: the vertex-program contract
// (paper §4.1), the BSP superstep loop (Algorithm 2), and the generalized
// sparse matrix–sparse vector multiplication backend (Algorithm 1) with the
// optimizations of §4.5 — bitvector message vectors, monomorphized (inlined)
// user callbacks, partition-parallel SpMV and dynamic load balancing. Each of
// these optimizations can be disabled individually to reproduce the Figure 7
// ablation.
//
// There is one superstep loop (driver.run, engine.go) and three front-ends
// that hand it their send / multiply / apply phases: the scalar engine
// (runScalar), the n×k multi-source block engine (runBlock, engine_block.go)
// and the boxed-dispatch ablation (runBoxed, boxed.go). Iteration cap, stop
// checks, Stats, direction choice and the observer report live in the loop;
// everything per vertex or per edge lives in the front-ends. A vector is a
// one-column block: runBlock at k = 1 calls runScalar over the block state's
// own arrays, so the two engines share every phase there and callers never
// choose an engine by source count.
//
// The SpMV backend is a kernel layer (kernel.go) with three traversals. Two
// are column walks, scatters driven by source columns: the paper's sweep of
// every stored column (Pull) and a frontier-driven SpMSpV (Push), chosen per
// superstep by a density threshold when Config.Mode is Auto. The third is the
// row walk, a gather driven by destinations — the bottom-up step of
// direction-optimizing BFS — which a Pull superstep takes for programs that
// declare FirstMessageFinal once the frontier's edge work outweighs what is
// left unsettled, in the scalar engine and, k columns per row scan, in the
// block engine. All three fold a destination's messages in ascending
// source order, so every mode produces bit-identical results.
package core

import "graphmat/internal/graph"

// VertexID identifies a vertex. Graphs are limited to 2³²−1 vertices.
type VertexID = uint32

// Program is a GraphMat vertex program over vertex properties V, edge values
// E, messages M and reduced values R (the C++ API is templatized the same
// way; see the paper's appendix).
//
// Each superstep the engine calls SendMessage on every active vertex,
// multiplies the resulting sparse message vector against the adjacency
// structure — calling ProcessMessage once per edge from a sending vertex and
// folding the results per destination with Reduce — and finally calls Apply
// on every vertex that received a reduced value. Reduce must be commutative
// and associative: partitions fold results in structure order, which is not
// the message send order.
//
// Optional marker interfaces let a program tell the backend what its
// callbacks cannot say: DstIndependent (ProcessMessage ignores the
// destination), SumFoldF64 and the float32 path folds (the fold is a known
// semiring the kernels fuse), FirstMessageFinal (the first message to reach
// a vertex decides it, so dense supersteps may gather by destination). Each
// is a promise the differential suites hold the program to.
type Program[V, E, M, R any] interface {
	// SendMessage produces vertex v's message from its property. Returning
	// send=false suppresses the message (the C++ API's boolean return).
	SendMessage(v VertexID, prop V) (msg M, send bool)

	// ProcessMessage turns an arriving message into a result for one edge.
	// It sees the edge value and — GraphMat's key expressiveness addition
	// over CombBLAS-style semiring frameworks (§4.2) — the *destination*
	// vertex property.
	ProcessMessage(msg M, edge E, dst V) R

	// Reduce folds two results into one. Must be commutative/associative.
	Reduce(a, b R) R

	// Apply consumes the reduced value for vertex v, mutating its property
	// in place. Returning true marks v active for the next superstep
	// (Algorithm 2 marks a vertex active when its state changed; the
	// boolean encodes exactly that).
	Apply(reduced R, v VertexID, prop *V) (activate bool)

	// Direction selects which edges messages scatter along (§4.1:
	// "SEND_MESSAGE can be called to scatter along in- and/or out- edges").
	Direction() graph.Direction
}

// DstIndependent is an optional marker for programs whose ProcessMessage
// never reads the destination vertex property (PageRank, BFS, SSSP, …).
// The backend then skips the per-edge property load — one fewer random
// memory stream in the SpMV inner loop. The C++ release gets this for free
// from template inlining and dead-code elimination; Go's generic dictionaries
// cannot prove the load dead, so the contract is explicit: the folds pass
// such a program the zero V. It is also what admits a program to the block
// engine (RunBlockContext), where one edge serves k columns' destinations.
type DstIndependent interface {
	ProcessIgnoresDst()
}

// FirstMessageFinal is an optional marker for traversal programs in which a
// vertex is decided by the first message that reaches it — BFS levels,
// reachability. Unsettled reports, from the vertex property alone, whether a
// vertex is still waiting for that message. Declaring it is a promise about
// every superstep of every run the program is used for:
//
//   - mask: Apply on a vertex that is not unsettled returns false and leaves
//     its property unchanged, for any reduced value the run can deliver;
//   - first message final: on an unsettled vertex, the reduction of all of a
//     superstep's messages equals the result of the first one folded (in
//     ascending source order, the order every traversal folds in).
//
// The promise lets a dense pull superstep run the row walk (kernel.go): skip
// settled destinations outright and leave an unsettled one at its first
// frontier in-neighbour. Vertex state, frontiers and the Iterations /
// MessagesSent / ActiveSum tallies are unchanged by it; the work tallies
// change meaning on those supersteps (see Stats.RowSupersteps). A program
// whose messages can differ within a superstep (SSSP, widest path, label
// propagation) or that accumulates (PageRank) must not declare it: it would
// get wrong answers on exactly the supersteps that gather.
type FirstMessageFinal[V any] interface {
	Unsettled(prop V) bool
}
