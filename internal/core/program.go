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
// The SpMV backend is a kernel layer (kernel.go) with two directions: the
// paper's column-driven pull probe and a frontier-driven push SpMSpV, chosen
// per superstep by a density threshold when Config.Mode is Auto
// (direction optimization à la Ligra/GraphBLAST). All modes produce
// bit-identical results.
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
// cannot prove the load dead, so the contract is explicit.
type DstIndependent interface {
	ProcessIgnoresDst()
}
