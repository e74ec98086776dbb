// Package core implements the GraphMat engine: the vertex-program contract
// (paper §4.1), the BSP superstep loop (Algorithm 2), and the generalized
// sparse matrix–sparse vector multiplication backend (Algorithm 1) with the
// optimizations of §4.5 — bitvector message vectors, unboxed generic user
// callbacks, partition-parallel SpMV and dynamic load balancing. Each of
// these optimizations can be disabled individually to reproduce the Figure 7
// ablation. The generic callbacks are not inlined — Go compiles one body per
// GC shape and calls a type parameter's methods through its dictionary (see
// Inlined) — so the paper's -ipo step has a different analogue here: the
// fused fold sinks and the program markers, which take the calls off the
// per-edge path or skip the work outright.
//
// There is one superstep loop (driver.run, engine.go) and two front-ends
// that hand it their send / multiply / apply phases: runPhases (engine.go),
// which serves the scalar engine and the n×k multi-source block engine
// (engine_block.go) alike, and the boxed-dispatch ablation (runBoxed,
// boxed.go). Iteration cap, stop checks, Stats, direction choice, the
// observer report and an AllVerticesActive program's re-activation live in
// the loop; everything per vertex or per edge lives in the front-ends. A
// vector is a one-column block: runPhases walks the frontier's rows and each
// row's column mask, where a row is one vertex of a block with per-vertex
// masks and, at k = 1, a whole mask word whose columns are its vertices. So
// width selects the fold sink and the shape of a row, nothing else, and
// callers never choose an engine by source count.
//
// The SpMV backend is a kernel layer (kernel.go) with three traversals. Two
// are column walks, scatters driven by source columns: the paper's sweep of
// every stored column (Pull) and a frontier-driven SpMSpV (Push), chosen per
// superstep when Config.Mode is Auto by a work-counting cost model
// (KernelCosts.Choose): the frontier's edge work against the structure's
// edges, and its column lookups — in each partition whose stored columns
// can hold the vertex — against a sweep of every column. The third is the
// row walk, a gather driven by destinations — the bottom-up step of
// direction-optimizing BFS — which a Pull superstep takes for programs that
// declare SemiringBoolean, FirstMessageFinal and DstIndependent once the
// frontier's edge work outweighs what is left unsettled, at one column and,
// k columns per row scan, in a block. All three fold a destination's
// messages in ascending source order, so every mode produces bit-identical
// results.
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
// Only a run's first superstep calls SendMessage in a phase of its own. After
// that the engine calls it from the previous superstep's apply phase, on each
// vertex just after the Apply that activated it, with the property that
// Apply wrote — unless the run's MaxIterations cap ends it there, so a run
// never sends a message it will not multiply. (An AllVerticesActive program's
// supersteps each send in their own phase.) SendMessage must therefore be a
// pure function of (v, prop): it runs concurrently with other vertices' Apply
// calls, and before the superstep's observer report (graphmatlint's purefold
// checks it with the fold operators).
//
// Optional marker interfaces let a program tell the backend what its
// callbacks cannot say: DstIndependent (ProcessMessage ignores the
// destination), SemiringFold (the fold is a known semiring — float64 sum,
// a float32 path semiring, uint32 min or boolean — which the sinks fuse or
// shrink to a column mask), FirstMessageFinal (the first message to reach a
// vertex decides it, so a boolean fold's dense supersteps may gather by
// destination),
// AllVerticesActive (every vertex of a live column is active on every
// superstep, so Apply's result decides only convergence). Each is a promise
// the differential suites hold the program to.
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
// engine (a RunContext over two or more columns), where one edge serves k
// columns' destinations.
type DstIndependent interface {
	ProcessIgnoresDst()
}

// AllVerticesActive is an optional marker for programs in which every vertex
// is active on every superstep — PageRank and personalized PageRank, the C++
// release's ALL_VERTICES activity setting. After each superstep that does not
// end the run, the engine re-activates every vertex of every column that
// still has an active (vertex, column) pair, so Apply's return value decides
// only convergence: a column drops out once none of its Apply calls returns
// true, and the run converges when every column has, or when a superstep
// sends nothing. Every superstep of such a run sends in a phase of its own.
type AllVerticesActive interface {
	KeepsAllVerticesActive()
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
//     ascending source order, the order every traversal folds in);
//   - settle: an Apply that leaves an unsettled vertex settled returns true.
//
// The engine acts on the marker only together with SemiringBoolean and
// DstIndependent, as bfs and reachability declare them: such a run folds
// column masks (SemiringBoolean), and the promise then lets a dense pull
// superstep run the row walk (kernel.go) — skip settled destinations
// outright and leave an unsettled one at its first frontier in-neighbour, a
// scan of the structure that reads no edge value, message or property. A
// run of any width reads which (vertex, column) pairs are settled from a
// mask (a bitmap at one column), seeded from Unsettled once per run and
// kept current by the apply phase, which tests Unsettled after each Apply
// that activates — the only Applies that can settle a pair. Vertex state,
// frontiers and the Iterations / MessagesSent / ActiveSum tallies are
// unchanged by it; the work tallies change meaning on those supersteps (see
// Stats.RowSupersteps). A program that declares the marker alone takes the
// column walks and folds every message, which by the promise gives the same
// vertex state. A program whose messages can differ within a superstep
// (SSSP, widest path, label propagation) or that accumulates (PageRank)
// must not declare it: it would get wrong answers on exactly the supersteps
// that gather.
type FirstMessageFinal[V any] interface {
	Unsettled(prop V) bool
}

// Semiring names the fold a program's ProcessMessage and Reduce compute,
// when it is one the sinks know: a program declares it once, through
// SemiringFold, and the sinks resolve it once per run. Each value is a
// promise, like DstIndependent: the fused or shrunk fold must be
// indistinguishable from the generic callback loop, which the differential
// suites enforce (fused against generic, every SIMD backend against the
// scalar oracle, each block column against its solo run — all bit-identical).
type Semiring uint8

const (
	// SemiringNone declares nothing: the sinks call ProcessMessage and
	// Reduce per edge. It is what a program without SemiringFold gets.
	SemiringNone Semiring = iota
	// SemiringSumF64 is the (+, passthrough) monoid over float64:
	// ProcessMessage returns the message unchanged — bit for bit, for every
	// edge value and destination — and Reduce is float64 addition. PageRank,
	// PPR and HITS are this shape. The sinks fold through the kernels
	// backend's ScatterAddF64 and FlatAddF64 (one column) and BlockAddF64
	// (k masked lanes), which is where the AVX2/NEON backends earn their
	// keep. One boundary inherited from the branchless SIMD variants:
	// messages must never be signaling NaNs, which arithmetic results never
	// are.
	SemiringSumF64
	// SemiringMinPlusF32 is the float32 tropical semiring: ProcessMessage is
	// message + edge weight — bit for bit, ignoring the destination — and
	// Reduce the builtin min. SSSP is this shape. The fused folds apply the
	// builtin min in the generic fold's argument order, so NaN and ±0 come
	// out the same. Only float32-weighted graphs take it.
	SemiringMinPlusF32
	// SemiringMaxMinF32 is the (max, min) analogue: ProcessMessage is the
	// builtin min of message and edge weight, Reduce the builtin max. Widest
	// paths are this shape.
	SemiringMaxMinF32
	// SemiringBoolean is the (OR, AND) shape of a traversal: what a message
	// says is only that it arrived. The promise, which like
	// FirstMessageFinal's holds for the level-synchronous starts the
	// traversal drivers seed: within one superstep, every message one source
	// column's senders produce processes to the same value, over any edge
	// value (the zero one included). BFS and reachability are this shape. A
	// run of a program that also declares FirstMessageFinal and
	// DstIndependent then folds masks, not values: one column mask per edge
	// instead of one value per (edge, column) in a block of two or more
	// columns (blockMaskSink), one bit per edge at one column (maskSink),
	// and its apply hands each newly reached (vertex, column) the column's
	// one value, which ProcessMessage computes once per superstep. No fold
	// then calls ProcessMessage or Reduce per edge, and the row walk reads
	// sources only. Reduce must return any value it is given twice.
	SemiringBoolean
	// SemiringMinU32 is the (min, passthrough) monoid over uint32:
	// ProcessMessage returns the message unchanged — bit for bit, for every
	// edge value and destination — and Reduce is the builtin min. Label
	// propagation (connected components) is this shape. A one-column run
	// folds it in a loop that calls nothing (minSinkU32), scalar on every
	// backend; a block run of two or more columns folds it generically.
	SemiringMinU32
)

// SemiringFold is the optional marker through which a program declares its
// fold (Semiring). Semiring must return the same value on every call.
type SemiringFold interface {
	Semiring() Semiring
}

// semiringOf returns the fold program p declares.
func semiringOf(p any) Semiring {
	if s, ok := p.(SemiringFold); ok {
		return s.Semiring()
	}
	return SemiringNone
}
