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
// (context deadlines or WithMaxDuration), and watch progress with a
// per-superstep observer:
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
	"time"

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

// SumFoldF64 is the optional marker for programs whose fold is the
// (+, passthrough) monoid over float64 (PageRank-shaped folds); implementing
// it routes the SpMV/SpMM column folds through the arch-dispatched SIMD
// kernel backends. See core.SumFoldF64.
type SumFoldF64 = core.SumFoldF64

// FirstMessageFinal is the optional marker for traversal programs in which
// the first message to reach a vertex decides it (BFS, reachability);
// implementing it lets dense pull supersteps gather by destination row —
// skip settled vertices, stop at the first frontier in-neighbour — instead
// of sweeping every stored column. See core.FirstMessageFinal for the
// promise it makes.
type FirstMessageFinal[V any] = core.FirstMessageFinal[V]

// MinPlusFoldF32 is the optional marker for programs whose fold is the
// float32 (min, +) tropical semiring (SSSP-shaped folds); implementing it
// routes the SpMV/SpMM column folds through the kernel backends' fused
// path-fold primitives. See core.MinPlusFoldF32.
type MinPlusFoldF32 = core.MinPlusFoldF32

// MaxMinFoldF32 is the optional marker for programs whose fold is the
// float32 (max, min) bottleneck semiring (widest-path-shaped folds). See
// core.MaxMinFoldF32.
type MaxMinFoldF32 = core.MaxMinFoldF32

// Graph is a directed property graph with vertex properties V and edge
// values E.
type Graph[V, E any] = graph.Graph[V, E]

// Options configures graph construction (partition count, traversal
// directions).
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

// VectorKind selects the sparse message-vector representation. Sorted is
// supported with Boxed dispatch only (together the Figure 7 "naive" step);
// Sorted with Inlined is a configuration error.
type VectorKind = core.VectorKind

// Engine ablation knobs (see the Figure 7 reproduction).
const (
	Bitvector = core.Bitvector
	Sorted    = core.Sorted
	Inlined   = core.Inlined
	Boxed     = core.Boxed
	Dynamic   = core.Dynamic
	Static    = core.Static
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
// Triple.Col = destination). The input is consumed: sorted and deduplicated
// in place.
func New[V, E any](adj *COO[E], opts Options) (*Graph[V, E], error) {
	return graph.NewFromCOO[V, E](adj, opts)
}

// Run executes a vertex program until convergence or cfg.MaxIterations. It
// is RunContext without a context: it cannot be canceled, so the only error
// is a rejected configuration (Sorted with Inlined dispatch).
func Run[V, E, M, R any, P Program[V, E, M, R]](g *Graph[V, E], p P, cfg Config) (Stats, error) {
	return core.Run(g, p, cfg)
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

// WithMaxDuration bounds the run's wall time; expiry stops the run promptly
// — even mid-superstep — with reason DeadlineExceeded.
func WithMaxDuration(d time.Duration) RunOption { return core.WithMaxDuration(d) }

// RunContext executes a vertex program under ctx: cancellation and deadlines
// stop the run cooperatively, checked between supersteps and inside the
// parallel partition loops so long SpMVs abort promptly. ws may be nil (the
// engine allocates scratch) or caller-managed. Stats.Reason records why the
// run ended; the error is nil for Converged/MaxIterations, ctx.Err() for
// Canceled/DeadlineExceeded, and the observer's error for StoppedByObserver.
func RunContext[V, E, M, R any, P Program[V, E, M, R]](
	ctx context.Context, g *Graph[V, E], p P, cfg Config, ws *Workspace[M, R], opts ...RunOption,
) (Stats, error) {
	return core.RunContext[V, E, M, R, P](ctx, g, p, cfg, ws, opts...)
}

// Workspace is reusable engine scratch (the C++ API's graph_program_init /
// graph_program_clear); see core.Workspace.
type Workspace[M, R any] = core.Workspace[M, R]

// NewWorkspace allocates engine scratch for n-vertex graphs. The vector kind
// must match the Config the workspace will run under — Bitvector for every
// run that uses a workspace (the naive ablation's Boxed path keeps its own).
func NewWorkspace[M, R any](n int, kind VectorKind) *Workspace[M, R] {
	return core.NewWorkspace[M, R](n, kind)
}

// RunWithWorkspace is Run with caller-managed scratch, for drivers that
// invoke the engine repeatedly.
func RunWithWorkspace[V, E, M, R any, P Program[V, E, M, R]](g *Graph[V, E], p P, cfg Config, ws *Workspace[M, R]) (Stats, error) {
	return core.RunWithWorkspace(g, p, cfg, ws)
}

// MaxBlockSources is the widest source block one engine run accepts (64, so
// per-vertex column masks are single machine words). Wider batches split at
// the algorithms layer.
const MaxBlockSources = core.MaxBlockSources

// BlockState carries the per-(vertex, source) properties and active set of a
// multi-source run; it replaces the graph's scalar vertex state, so block and
// scalar runs can share one pinned snapshot.
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

// RunBlock executes a DstIndependent program over the k source columns of st
// until every column converges; it is RunBlockContext without a context.
func RunBlock[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	g *Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R],
) (Stats, error) {
	return core.RunBlock[V, E, M, R, P](g, p, st, cfg, ws)
}

// RunBlockContext is the multi-source analogue of RunContext: one n×k SpMM
// sweep per superstep advances up to 64 independent source columns, each
// column dropping out of the sweep as it converges. One column runs the scalar
// engine's phases over st and ws, so a k = 1 block run costs and reports what
// RunContext does. The block fold is p's own ProcessMessage and Reduce, so a
// k-source run is bit-identical per source to k scalar runs. See
// core.RunBlockContext.
func RunBlockContext[V, E, M, R any, P interface {
	Program[V, E, M, R]
	DstIndependent
}](
	ctx context.Context, g *Graph[V, E], p P, st *BlockState[V], cfg Config, ws *BlockWorkspace[M, R], opts ...RunOption,
) (Stats, error) {
	return core.RunBlockContext[V, E, M, R, P](ctx, g, p, st, cfg, ws, opts...)
}

// SpMV performs a single generalized sparse matrix–sparse vector
// multiplication with the program's ProcessMessage/Reduce (the Figure 1
// primitive), without the surrounding superstep loop. It dispatches through
// the same kernel layer as the engine: cfg.Mode selects pull, push, or a
// per-call Auto density decision.
func SpMV[V, E, M, R any, P Program[V, E, M, R]](g *Graph[V, E], x *Vector[M], p P, cfg Config) *Vector[R] {
	return core.SpMV(g, x, p, cfg)
}

// SpMVContext is SpMV under a context: cancellation aborts the partition
// loop cooperatively and the partial result is returned with ctx.Err().
func SpMVContext[V, E, M, R any, P Program[V, E, M, R]](ctx context.Context, g *Graph[V, E], x *Vector[M], p P, cfg Config) (*Vector[R], error) {
	return core.SpMVContext[V, E, M, R, P](ctx, g, x, p, cfg)
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

// Store is a versioned mutable graph: immutable epoch-numbered snapshots
// advanced by batched edge updates, with refcounted pinning and automatic
// compaction of the delta overlay back into the base structures. See
// graph.Store.
type Store[V, E any] = graph.Store[V, E]

// Snapshot is one pinned, immutable version of a store's graph.
type Snapshot[V, E any] = graph.Snapshot[V, E]

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
func NewStore[V, E any](adj *COO[E], opts Options) (*Store[V, E], error) {
	return graph.NewStore[V, E](adj, opts)
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
func StoreImage[V any](s *Store[V, float32], tag uint64) (*SnapImage, error) {
	return graph.StoreImage[V](s, tag)
}

// NewStoreFromImage rebuilds a versioned store from a snapshot image at the
// image's epoch, adopting the image's arrays without copying or rebuilding
// — the zero-copy boot path. The on-heap build (NewStore over the original
// input) is the differential oracle for it.
func NewStoreFromImage[V any](img *SnapImage) (*Store[V, float32], error) {
	return graph.NewStoreFromImage[V](img)
}

// WriteSnap serializes an image to path crash-safely (temp file, fsync,
// rename, directory fsync).
func WriteSnap(path string, img *SnapImage) error { return snap.Write(path, img) }

// OpenSnap maps a GMATSNAP file and returns it with O(header) validation;
// the image's arrays are views into the mapping. Use SnapFile.Verify for
// the deep payload-CRC pass.
func OpenSnap(path string) (*SnapFile, error) { return snap.Open(path) }
