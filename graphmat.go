// Package graphmat is a Go reproduction of GraphMat (Sundaram et al.,
// VLDB 2015): a graph analytics framework that executes vertex programs on a
// generalized sparse matrix–vector multiplication backend, combining the
// productivity of "think like a vertex" programming with the performance of
// optimized sparse linear algebra.
//
// A vertex program implements the Program interface — SendMessage,
// ProcessMessage, Reduce, Apply — and runs with Run:
//
//	g, _ := graphmat.New[float32, float32](edges, graphmat.Options{})
//	g.SetAllProps(math.MaxFloat32)
//	g.SetProp(src, 0)
//	g.SetActive(src)
//	graphmat.Run(g, ssspProgram{}, graphmat.Config{})
//
// Runs are sessions: RunContext executes the same superstep loop under a
// context.Context, so callers can cancel abandoned work, bound wall time
// with a context deadline (which stops even a superstep in flight), and watch
// progress with a per-superstep observer:
//
//	stats, err := graphmat.RunContext(ctx, g, prog, cfg, nil,
//		graphmat.WithObserver(func(info graphmat.IterationInfo) error {
//			log.Printf("superstep %d: %d active", info.Iteration, info.Active)
//			return nil // any error stops the run
//		}))
//
// Every run ends with a typed reason in Stats.Reason — Converged,
// MaxIterations, Canceled, DeadlineExceeded or StoppedByObserver — and
// canceled runs still return the partial statistics of the work done.
//
// Ready-made programs for PageRank, BFS, SSSP, triangle counting and
// collaborative filtering live in the algorithms subpackage. The engine,
// matrix formats and workload generators are implemented in internal
// packages; this package is the supported surface.
package graphmat

import (
	"context"
	"io"

	"graphmat/internal/bitvec"
	"graphmat/internal/core"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// VertexID identifies a vertex; graphs hold at most 2³²−1 vertices.
type VertexID = core.VertexID

// Program is the GraphMat vertex-program contract; see core.Program.
type Program[V, E, M, R any] = core.Program[V, E, M, R]

// DstIndependent is the optional marker for programs whose ProcessMessage
// ignores the destination vertex property; implementing it removes one
// random memory stream from the SpMV inner loop and admits the program to
// multi-source block runs (RunBlockContext). See core.DstIndependent.
type DstIndependent = core.DstIndependent

// Semiring names a program's fold when it is one the engine knows; see
// core.Semiring for each value's promise.
type Semiring = core.Semiring

// The folds a program can declare through SemiringFold.
const (
	// SemiringNone is the generic fold: ProcessMessage and Reduce per edge.
	SemiringNone = core.SemiringNone
	// SemiringSumF64 is the (+, passthrough) monoid over float64
	// (PageRank-shaped folds): the SpMV/SpMM column folds run through the
	// arch-dispatched SIMD kernel backends.
	SemiringSumF64 = core.SemiringSumF64
	// SemiringMinPlusF32 is the float32 (min, +) tropical semiring
	// (SSSP-shaped folds): the kernel backends' fused path-fold primitives.
	SemiringMinPlusF32 = core.SemiringMinPlusF32
	// SemiringMaxMinF32 is the float32 (max, min) bottleneck semiring
	// (widest-path-shaped folds), fused like SemiringMinPlusF32.
	SemiringMaxMinF32 = core.SemiringMaxMinF32
	// SemiringBoolean is the (OR, AND) shape of a traversal (BFS,
	// reachability): a run of a program that also declares FirstMessageFinal
	// and DstIndependent folds column masks, not values, at every width, and
	// its dense pull supersteps may gather by destination row.
	SemiringBoolean = core.SemiringBoolean
	// SemiringMinU32 is the (min, passthrough) monoid over uint32 (label
	// propagation, connected components): a one-column fold with no
	// callback in its per-edge loop, scalar on every backend.
	SemiringMinU32 = core.SemiringMinU32
)

// SemiringFold is the optional marker through which a program declares its
// fold: Semiring returns one of the Semiring values. See core.Semiring.
type SemiringFold = core.SemiringFold

// FirstMessageFinal is the optional marker for traversal programs in which
// the first message to reach a vertex decides it (BFS, reachability);
// implementing it beside SemiringBoolean and DstIndependent lets dense pull
// supersteps gather by destination row — skip settled vertices, stop at the
// first frontier in-neighbour — instead of sweeping every stored column.
// See core.FirstMessageFinal for the promise it makes.
type FirstMessageFinal[V any] = core.FirstMessageFinal[V]

// AllVerticesActive is the optional marker for programs in which every
// vertex is active on every superstep (PageRank, the C++ release's
// ALL_VERTICES setting); implementing it makes the engine re-activate every
// vertex of each still-live column between supersteps, so one run iterates
// to convergence and Apply's result decides only convergence. See
// core.AllVerticesActive.
type AllVerticesActive = core.AllVerticesActive

// Edges is a graph's edge set: partitions, pending-update overlays, degrees
// and epoch. Runs only read it, so any number of them, each over its own
// BlockState, share one (a Store's snapshots are Edges).
type Edges[E any] = graph.Graph[E]

// Graph is a directed property graph with vertex properties V and edge
// values E, the paper's Graph<V>: Edges paired with the one-column
// BlockState that Run, RunContext and SpMV run over, both embedded.
type Graph[V, E any] struct {
	*Edges[E]
	*BlockState[V]
}

// Prop returns vertex v's property.
func (g *Graph[V, E]) Prop(v uint32) V { return g.BlockState.Prop(v, 0) }

// SetProp sets vertex v's property.
func (g *Graph[V, E]) SetProp(v uint32, p V) { g.BlockState.SetProp(v, 0, p) }

// InitProps sets each vertex property with a function of the vertex id.
func (g *Graph[V, E]) InitProps(fn func(v uint32) V) {
	g.BlockState.InitProps(func(v uint32, _ int) V { return fn(v) })
}

// Active exposes the active-vertex bitvector (paper §4.3: "the set of active
// vertices is maintained using a boolean array for performance reasons").
func (g *Graph[V, E]) Active() *bitvec.Vector { return g.BlockState.Active() }

// SetActive marks vertex v active for the next superstep.
func (g *Graph[V, E]) SetActive(v uint32) { g.Activate(v, 0) }

// SetAllActive marks every vertex active.
func (g *Graph[V, E]) SetAllActive() { g.ActivateAllMask(1) }

// Options configures graph construction (partition count, traversal
// directions). A graph keeps the structures it was built with for its whole
// life: running a program along a direction Options.Directions left out is
// an error, never a late build.
type Options = graph.Options

// Direction selects which edges messages scatter along.
type Direction = graph.Direction

// Scatter directions.
const (
	Out  = graph.Out
	In   = graph.In
	Both = graph.Both
)

// Config controls an engine run; the zero value is the fully optimized
// configuration on all cores.
type Config = core.Config

// Stats reports what a run did.
type Stats = core.Stats

// SchedStats is the scheduler-runtime slice of Stats: worker count, tasks
// dispatched, steals, and busy nanoseconds for one run.
type SchedStats = core.SchedStats

// VectorKind is NewWorkspace's ignored message-vector argument; Bitvector is
// its one value.
type VectorKind = core.VectorKind

// Bitvector, and Config.Dispatch's values: Inlined (the zero value), Boxed
// and BoxedSorted are Figure 7's "+ipo", "+bitvector" and "naive" steps. The
// boxed dispatches run one column.
const (
	Bitvector   = core.Bitvector
	Inlined     = core.Inlined
	Boxed       = core.Boxed
	BoxedSorted = core.BoxedSorted
)

// Mode selects the SpMV kernel backend; see Config.Mode. All modes produce
// bit-identical results — like Threads, Mode is a performance knob only.
type Mode = core.Mode

// Kernel modes: Auto (the default) switches between the frontier-driven push
// SpMSpV and the column-driven pull probe per superstep by frontier density;
// Pull and Push force one kernel.
const (
	Auto = core.Auto
	Pull = core.Pull
	Push = core.Push
)

// ParseMode resolves a kernel-mode name ("auto", "pull", "push"); the empty
// string means Auto.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// DefaultPushThreshold is the Auto density cutoff: frontier edge work × 20
// must fit in the structure's total edge count for a superstep to push.
const DefaultPushThreshold = core.DefaultPushThreshold

// COO is an edge-triple list with explicit dimensions, the interchange
// format accepted by New.
type COO[E any] = sparse.COO[E]

// Triple is one (src, dst, value) edge.
type Triple[E any] = sparse.Triple[E]

// Vector is a sparse vector masked by a bitvector, usable with SpMV.
type Vector[T any] = sparse.Vector[T]

// NewCOO returns an empty edge list over n vertices.
func NewCOO[E any](n uint32) *COO[E] {
	return sparse.NewCOO[E](n, n)
}

// NewVector returns an empty sparse vector of dimension n.
func NewVector[T any](n int) *Vector[T] {
	return sparse.NewVector[T](n)
}

// New builds a graph from adjacency triples (Triple.Row = source,
// Triple.Col = destination), with zero vertex properties and no vertex
// active. The input is consumed: sorted and deduplicated in place.
func New[V, E any](adj *COO[E], opts Options) (*Graph[V, E], error) {
	e, err := graph.NewFromCOO(adj, opts)
	if err != nil {
		return nil, err
	}
	return &Graph[V, E]{Edges: e, BlockState: core.NewBlockState[V](int(e.NumVertices()), 1)}, nil
}

// CheckAdjacency returns the error New would return for adj's shape: a
// matrix that is not square, or an entry outside it.
func CheckAdjacency[E any](adj *COO[E]) error { return graph.CheckAdjacency(adj) }

// Run executes a vertex program over g's vertex state until convergence or
// cfg.MaxIterations. It is RunContext without a context: it cannot be
// canceled, and every Config runs, so its one possible error is a direction
// p scatters along that g was built without (Options.Directions), returned
// before any superstep.
func Run[V, E, M, R any, P Program[V, E, M, R]](g *Graph[V, E], p P, cfg Config) (Stats, error) {
	return core.Run(g.Edges, p, g.BlockState, cfg)
}

// StopReason classifies why a run ended; see Stats.Reason.
type StopReason = core.StopReason

// Stop reasons recorded in Stats.Reason.
const (
	ReasonNone        = core.ReasonNone
	Converged         = core.Converged
	MaxIterations     = core.MaxIterations
	Canceled          = core.Canceled
	DeadlineExceeded  = core.DeadlineExceeded
	StoppedByObserver = core.StoppedByObserver
)

// IterationInfo is the per-superstep progress report delivered to observers.
type IterationInfo = core.IterationInfo

// Observer is a per-superstep callback; a non-nil error return stops the run
// with reason StoppedByObserver.
type Observer = core.Observer

// RunOption configures a RunContext call.
type RunOption = core.RunOption

// WithObserver invokes fn after every superstep with that superstep's
// progress (iteration number, frontier size, messages sent, wall time). An
// error return stops the run.
func WithObserver(fn Observer) RunOption { return core.WithObserver(fn) }

// RunContext executes a vertex program over g's vertex state under ctx:
// cancellation and deadlines stop the run cooperatively, checked between
// supersteps and inside the parallel partition loops so long SpMVs abort
// promptly. ws may be nil (the
// engine allocates scratch) or caller-managed. A program whose Direction
// names a structure g was built without (Options.Directions) is an error
// before any superstep. Otherwise Stats.Reason records why the run ended;
// the error is nil for Converged/MaxIterations, ctx.Err() for
// Canceled/DeadlineExceeded, and the observer's error for StoppedByObserver.
func RunContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *Graph[V, E], p P, cfg Config, ws *Workspace[M, R], opts ...RunOption,
) (Stats, error) {
	return core.RunContext[V, E, M, R, P](ctx, g.Edges, p, g.BlockState, cfg, ws, opts...)
}

// Workspace is reusable engine scratch (the C++ API's graph_program_init /
// graph_program_clear) for one-column runs: the one-column BlockWorkspace.
type Workspace[M, R any] = core.Workspace[M, R]

// NewWorkspace allocates one-column engine scratch for n-vertex graphs. The
// vector kind is ignored: one workspace serves every configuration (the
// boxed dispatches keep their own scratch).
func NewWorkspace[M, R any](n int, kind VectorKind) *Workspace[M, R] {
	return core.NewWorkspace[M, R](n, kind)
}

// MaxBlockSources is the widest source block one engine run accepts (64, so
// per-vertex column masks are single machine words). Wider batches split at
// the algorithms layer.
const MaxBlockSources = core.MaxBlockSources

// BlockState carries the per-(vertex, source) properties and active set of a
// run: a Graph's own state is one column of it, and a multi-source run owns
// one of up to MaxBlockSources columns. Edges hold no vertex state, so any
// number of runs can share one pinned snapshot.
type BlockState[V any] = core.BlockState[V]

// NewBlockState allocates vertex state for a k-source run over n vertices
// (1 <= k <= MaxBlockSources).
func NewBlockState[V any](n, k int) *BlockState[V] { return core.NewBlockState[V](n, k) }

// BlockWorkspace is the block engine's reusable n×k scratch.
type BlockWorkspace[M, R any] = core.BlockWorkspace[M, R]

// NewBlockWorkspace allocates block scratch for k-source runs over n-vertex
// graphs.
func NewBlockWorkspace[M, R any](n, k int) *BlockWorkspace[M, R] {
	return core.NewBlockWorkspace[M, R](n, k)
}

// RunBlockContext runs a vertex program on edges g over the k source
// columns of the run's own state st: one n×k SpMM sweep per superstep
// advances up to 64 independent source columns, each column dropping out of
// the sweep as it converges. Every width runs the scalar engine's send and
// apply over st and ws, and one column folds through the scalar engine's
// sinks, so a k = 1 run costs and reports what RunContext does on a Graph
// with the same state. The block fold is p's own ProcessMessage and Reduce,
// so a k-source run is bit-identical per source to k scalar runs. Config is
// validated at the run's width: the boxed dispatches (Boxed, BoxedSorted)
// run one column only. Like RunContext, a direction g was built without is
// an error before any superstep. See core.RunContext.
func RunBlockContext[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	ctx context.Context, g *Edges[E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts ...RunOption,
) (Stats, error) {
	return core.RunContext[V, E, M, R, P](ctx, g, p, st, cfg, ws, opts...)
}

// SpMV performs a single generalized sparse matrix–sparse vector
// multiplication with the program's ProcessMessage/Reduce (the Figure 1
// primitive), without the surrounding superstep loop. It dispatches through
// the same inlined kernel layer as the engine whatever cfg.Dispatch says:
// cfg.Mode selects pull, push, or a per-call Auto density decision. No
// Config is an error; a program whose Direction names a structure g was
// built without is, and SpMV panics with it. ProcessMessage reads the
// destination properties from g's vertex state. Otherwise the result is
// never nil.
func SpMV[V, E, M, R any, P Program[V, E, M, R]](g *Graph[V, E], x *Vector[M], p P, cfg Config) *Vector[R] {
	return core.SpMV(g.Edges, x, p, g.BlockState, cfg)
}

// SpMVContext is SpMV under a context: cancellation aborts the partition
// loop cooperatively and the partial result is returned with ctx.Err(). Its
// one other error is a direction g was built without, returned with a nil
// result before any work.
func SpMVContext[V, E, M, R any, P Program[V, E, M, R]](ctx context.Context, g *Graph[V, E], x *Vector[M], p P, cfg Config) (*Vector[R], error) {
	return core.SpMVContext[V, E, M, R, P](ctx, g.Edges, x, p, g.BlockState, cfg)
}

// LoadFile reads a graph file (.mtx Matrix Market, .bin binary edge list —
// either GMATBIN version — or whitespace text edge list) into adjacency
// triples. Parsing is chunk-parallel across all cores and bit-identical to a
// sequential load; use LoadFileOptions to control the worker count.
func LoadFile(path string) (*COO[float32], error) {
	return graph.LoadFile(path)
}

// LoadOptions configures graph file loading (ingestion parallelism, edge-list
// minimum vertex count).
type LoadOptions = graph.LoadOptions

// LoadFileOptions is LoadFile with explicit ingestion options.
func LoadFileOptions(path string, opt LoadOptions) (*COO[float32], error) {
	return graph.LoadFileOptions(path, opt)
}

// Store is a versioned mutable graph: immutable epoch-numbered snapshots of
// Edges advanced by batched edge updates, with refcounted pinning and
// automatic compaction of the delta overlay back into the base structures.
// It holds no vertex state: one store serves every program over its edges.
type Store[E any] = graph.Store[E]

// Snapshot is one pinned, immutable version of a store's edges, read by any
// number of runs at once, each over its own BlockState.
type Snapshot[E any] = graph.Snapshot[E]

// Update is one edge mutation: an upsert (insert or value replace) or, with
// Del set, a delete. Within a batch the last mutation of a (src, dst) key
// wins.
type Update[E any] = graph.Update[E]

// EdgeUpdate is the float32-weighted update the ready-made algorithms,
// generators and wire formats use.
type EdgeUpdate = graph.Update[float32]

// ApplyResult reports what one update batch did (epoch produced, edges
// inserted/deleted/updated, whether compaction ran).
type ApplyResult = graph.ApplyResult

// StoreStats is a point-in-time view of a store for observability.
type StoreStats = graph.StoreStats

// DefaultCompactFraction is the overlay-to-base size ratio beyond which
// ApplyEdges compacts when Options.CompactFraction is zero.
const DefaultCompactFraction = graph.DefaultCompactFraction

// NewStore builds a versioned store whose epoch-0 snapshot is the graph New
// would build from the same input (the adjacency is consumed the same way).
func NewStore[E any](adj *COO[E], opts Options) (*Store[E], error) {
	return graph.NewStore(adj, opts)
}

// ParseUpdates parses an edge-update stream — NDJSON ({"src","dst","weight",
// "del"} per line) or the text form ([add|del] src dst [weight]) — sniffing
// the format from the first byte.
func ParseUpdates(data []byte) ([]EdgeUpdate, error) { return graph.ParseUpdates(data) }

// WriteUpdates writes an edge-update stream as NDJSON.
func WriteUpdates(w io.Writer, ups []EdgeUpdate) error { return graph.WriteUpdates(w, ups) }

// LoadUpdatesFile reads and parses an update-stream file (format sniffed).
func LoadUpdatesFile(path string) ([]EdgeUpdate, error) { return graph.LoadUpdatesFile(path) }

// NormalizeAdjacency sorts adjacency triples row-major and deduplicates
// keep-first in place — the canonical master-copy form the update helpers
// below expect. Normalizing before any algorithm build changes nothing
// downstream (builders deduplicate the same way).
func NormalizeAdjacency[E any](adj *COO[E], workers int) { graph.NormalizeAdjacency(adj, workers) }

// ApplyToAdjacency returns a new adjacency equal to a normalized adj with
// the update batch applied (upserts replace or append, deletes remove). adj
// is not modified.
func ApplyToAdjacency[E any](adj *COO[E], batch []Update[E]) (*COO[E], error) {
	return graph.ApplyToAdjacency(adj, batch)
}

// LookupEdge binary-searches a normalized adjacency for edge src→dst.
func LookupEdge[E any](adj *COO[E], src, dst uint32) (E, bool) {
	return graph.LookupEdge(adj, src, dst)
}

// SnapImage is the raw-array form of one graph snapshot in the GMATSNAP
// persistence format (internal/snap): dimensions, epoch/tag marks, forward
// (and, with the In direction, backward) triples, degree arrays, and every
// per-partition DCSC array. Images round-trip through WriteSnap/OpenSnap;
// when read back from an mmap'd file the arrays are zero-copy views into
// the mapping.
type SnapImage = snap.Image

// SnapFile is an opened GMATSNAP snapshot: the mapping plus its zero-copy
// SnapImage. Long-lived owners keep it for the process lifetime (views must
// outlive every graph using them); short-lived ones Close it.
type SnapFile = snap.Snapshot

// SnapInfo summarizes an opened snapshot's header and section layout.
type SnapInfo = snap.Info

// StoreImage captures a persistable point-in-time image of the store's
// current graph, compacting any pending overlay first. tag is a caller
// consistency mark stored verbatim in the image (the serving layer stamps
// the master-copy epoch the image reflects).
func StoreImage(s *Store[float32], tag uint64) (*SnapImage, error) {
	return graph.StoreImage(s, tag)
}

// NewStoreFromImage rebuilds a versioned store from a snapshot image at the
// image's epoch, adopting the image's arrays without copying or rebuilding
// — the zero-copy boot path. The on-heap build (NewStore over the original
// input) is the differential oracle for it. V is unused: it remains only so
// existing callers that name it (NewStoreFromImage[float32]) still compile.
func NewStoreFromImage[V any](img *SnapImage) (*Store[float32], error) {
	return graph.NewStoreFromImage(img)
}

// WriteSnap serializes an image to path crash-safely (temp file, fsync,
// rename, directory fsync).
func WriteSnap(path string, img *SnapImage) error { return snap.Write(path, img) }

// OpenSnap maps a GMATSNAP file and returns it with O(header) validation;
// the image's arrays are views into the mapping. Use SnapFile.Verify for
// the deep payload-CRC pass.
func OpenSnap(path string) (*SnapFile, error) { return snap.Open(path) }
