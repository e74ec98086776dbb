package core

import (
	"fmt"
	"runtime"
)

// Mode selects how a superstep's multiply finds the frontier's columns: a
// sweep of every stored column probing the frontier ("pull", Algorithm 1 as
// the paper wrote it) versus a frontier-driven SpMSpV that looks each sender
// up in the column index ("push"). Both are scatters; the direction change
// of GraphBLAST/Ligra-style direction optimization is the row walk, which a
// Pull superstep takes on its own for boolean FirstMessageFinal programs
// (see Stats.RowSupersteps). Every mode produces bit-identical results — all
// three traversals fold a destination's messages in ascending source order
// within each partition's disjoint output row range — so Mode, like
// Threads, is purely a performance knob.
type Mode int

const (
	// Auto (the zero value) chooses per superstep: push when the frontier's
	// outgoing edge work is a small fraction of the structure's total edges
	// and its column lookups — one per frontier vertex in each partition
	// whose stored column range covers it — cost no more than sweeping every
	// stored column; pull otherwise. See KernelCosts.Choose; an observer sees
	// both sides of each decision (IterationInfo.FrontierEdges,
	// PushEstimate, PullBill).
	Auto Mode = iota
	// Pull always runs the column-driven kernel: probe every stored column
	// of every partition against the message vector (Algorithm 1 as the
	// paper wrote it). Best for dense frontiers (PageRank-style ranking).
	Pull
	// Push always runs the frontier-driven SpMSpV: iterate the message
	// vector's nonzeros and look each up in the partition's column index.
	// Best for sparse frontiers (high-diameter traversals).
	Push
)

// String names the mode for flags, logs and JSON.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Pull:
		return "pull"
	case Push:
		return "push"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MarshalJSON encodes the mode as its string name.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON decodes a string name back to the typed mode.
func (m *Mode) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: mode must be a JSON string, got %s", b)
	}
	mode, err := ParseMode(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ParseMode resolves a mode name ("auto", "pull", "push"); the empty string
// means Auto, matching the zero value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "pull":
		return Pull, nil
	case "push":
		return Push, nil
	}
	return Auto, fmt.Errorf("core: unknown kernel mode %q (want auto, pull or push)", s)
}

// DefaultPushThreshold is the Auto density cutoff: a superstep pushes when
// frontier edge work × 20 fits in the structure's total edge count — Ligra's
// |E|/20 heuristic.
const DefaultPushThreshold = 20

// VectorKind names a message-vector representation for NewWorkspace, which
// ignores it: the typed engine reads the bitvector frontier only, and the
// Figure 7 ablation picks its vector from Config.Dispatch.
type VectorKind int

// Bitvector is the bitvector-masked dense array the paper selects (§4.4.2).
const Bitvector VectorKind = 0

// Dispatch selects how user callbacks are invoked from the SpMV inner loop
// and, on the boxed path, which message vector they read: its three values
// are the single-thread steps of the Figure 7 ablation, from BoxedSorted
// ("naive") through Boxed ("+bitvector") to Inlined ("+ipo").
type Dispatch int

const (
	// Inlined uses the generic SpMV: the program, its vectors and its value
	// types are type parameters, so no message or result is boxed and no
	// callback goes through an interface value. It does NOT inline the
	// callbacks: Go 1.24 compiles one body per GC shape and calls a type
	// parameter's methods through that body's dictionary, so a CPU profile
	// shows tcPhase2.Reduce, CFProgram.ProcessMessage or SSSPProgram.Apply
	// as frames of their own. What the paper's -ipo (§4.5 item 2) buys by
	// inlining, this engine buys where it matters with the fused sinks of
	// the declared semirings (SemiringFold), whose per-edge loops call
	// nothing, and the markers (DstIndependent, FirstMessageFinal) that let
	// the walks skip work a callback cannot say is dead.
	Inlined Dispatch = iota
	// Boxed routes every message and result through interface{} values and
	// func-typed callbacks, preventing inlining, over a bitvector-masked
	// message vector — the pre-"+ipo" scalar code of Figure 7's "+bitvector"
	// step.
	Boxed
	// BoxedSorted is Boxed over a sorted (index, value) tuple array, the
	// message vector the paper rejects (§4.4.2): Figure 7's "naive" step.
	BoxedSorted
)

// Config controls one engine run. The zero value requests the fully
// optimized configuration on all available cores.
type Config struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// MaxIterations caps the superstep count; <= 0 means run until no
	// vertex is active (the paper's -1 convention).
	MaxIterations int
	// Dispatch selects inlined or boxed user-callback invocation. The boxed
	// dispatches run one column: a block run of two or more columns rejects
	// them.
	Dispatch Dispatch
	// Mode selects the SpMV kernel backend: Auto (default) switches between
	// the push and pull kernels per superstep by frontier density; Pull and
	// Push force one kernel. All three produce bit-identical results. The
	// boxed (naive) dispatch path ignores Mode and always pulls.
	Mode Mode
}

// validate rejects the one configuration with no code path: the boxed
// ablation runs one column, so it is an error at width k >= 2.
func (c Config) validate(k int) error {
	if c.Dispatch != Inlined && k > 1 {
		return fmt.Errorf("core: a boxed Config.Dispatch is not supported on a %d-column run: the boxed ablation runs one column", k)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats reports what one engine run did. The counter fields are exact tallies
// of engine work, used both for tests and as the software performance-counter
// proxies behind the Figure 6 reproduction (see internal/counters).
type Stats struct {
	// Iterations is the number of supersteps executed.
	Iterations int
	// MessagesSent counts SendMessage calls that produced a message.
	MessagesSent int64
	// EdgesProcessed counts edge traversals: on a column-walk superstep one
	// per (edge, live source column) — a ProcessMessage call, or in a
	// boolean block run (SemiringBoolean) the column bit the edge's mask OR
	// carries — and on a row-walk superstep the edge slots examined, each
	// counted once however many columns of a block waited at it (see
	// RowSupersteps).
	EdgesProcessed int64
	// Applies counts the received values: vertices — (vertex, column) pairs
	// of a block — that a superstep's multiply reached. Each is an Apply
	// call, except in a boolean block run, which calls Apply only on the
	// pairs not settled before and counts the settled ones all the same.
	Applies int64
	// ActiveSum is the cumulative size of the active set over supersteps.
	ActiveSum int64
	// ColumnsProbed counts presence probes: per pull superstep, one per
	// stored column of every partition; per push superstep, one
	// column-index lookup per frontier vertex in each partition whose
	// stored column range reaches the vertex's frontier word.
	ColumnsProbed int64
	// FlatEdges is the part of EdgesProcessed the pull walk folded as flat
	// edge ranges: whole partitions, or batches of stored columns, that all
	// carried a message. It equals EdgesProcessed on an all-active pull run
	// over a plain graph, at any partition and worker count. It is 0 for
	// push supersteps, for block runs of two or more columns and for the
	// boxed path.
	FlatEdges int64
	// PushSupersteps counts supersteps executed with the push (SpMSpV)
	// kernel; PullSupersteps counts supersteps executed with the pull
	// kernel. Supersteps that sent no messages run no kernel and count in
	// neither.
	PushSupersteps int64
	// PullSupersteps counts supersteps executed with the pull kernel.
	PullSupersteps int64
	// RowSupersteps counts the Pull supersteps (they are in PullSupersteps
	// too) that ran the row walk: the destination-driven gather a program
	// declaring SemiringBoolean, FirstMessageFinal and DstIndependent —
	// BFS, reachability — takes once its frontier's edge work outweighs
	// what is left unsettled; a block run takes it over all its columns at
	// once, scanning a row for the columns still unsettled in it. It is 0
	// for every other program (one that declares FirstMessageFinal alone
	// included), under forced Push and on the boxed path. On these
	// supersteps the work tallies are walk-dependent, which is why they
	// differ between modes for those two programs and no others:
	// EdgesProcessed counts edge slots examined (settled rows are skipped,
	// an unsettled row is left at its first frontier in-neighbour — usually
	// far fewer than the frontier's edges, at most 14 times as many),
	// ColumnsProbed counts nothing and Applies counts only the unsettled
	// vertices — (vertex, column) pairs of a block — a message reached.
	// Vertex state, Iterations, MessagesSent and ActiveSum do not depend on
	// the walk. Layers with pending updates gather too, reading each row's
	// live entries only: under Pull or Push a run over an overlay takes the
	// walks a run over a fresh build of the same edge set takes, with the
	// same tallies (ColumnsProbed aside, which counts per partition). Auto's
	// push bill reads the layers' stored column ranges, so there the two may
	// choose differently.
	RowSupersteps int64
	// Reason records why the run ended (Converged, MaxIterations, Canceled,
	// DeadlineExceeded, StoppedByObserver). Aggregated stats — sums over
	// many runs — leave it at ReasonNone.
	Reason StopReason
	// Sched reports the run's scheduler work (see SchedStats). Unlike the
	// engine tallies above, BusyNS and Steals are wall-clock-dependent and
	// vary run to run; differential assertions must not compare them.
	Sched SchedStats
}

// Add folds another run's tallies into s: every counter is summed,
// Sched.Workers is taken from o, and Reason — per-run, set by whoever drives
// the runs — is left alone. It is the one place a multi-run total is formed,
// so a new counter is summed everywhere or nowhere (TestStatsAddCoversEveryTally).
func (s *Stats) Add(o Stats) {
	s.Iterations += o.Iterations
	s.MessagesSent += o.MessagesSent
	s.EdgesProcessed += o.EdgesProcessed
	s.Applies += o.Applies
	s.ActiveSum += o.ActiveSum
	s.ColumnsProbed += o.ColumnsProbed
	s.FlatEdges += o.FlatEdges
	s.PushSupersteps += o.PushSupersteps
	s.PullSupersteps += o.PullSupersteps
	s.RowSupersteps += o.RowSupersteps
	s.Sched.Workers = o.Sched.Workers
	s.Sched.Tasks += o.Sched.Tasks
	s.Sched.Steals += o.Sched.Steals
	s.Sched.BusyNS += o.Sched.BusyNS
}

// SchedStats is one run's view of the worker-pool runtime: how many tasks
// the run's phases dispatched, how many of them moved between workers by
// stealing, and the summed busy time of every participating worker. Tasks
// is deterministic for a fixed Config and graph; Steals and BusyNS are
// scheduling outcomes. Process-cumulative per-worker counters (including
// the park→wake counts) are exported separately via /v1/stats.
type SchedStats struct {
	// Workers is the configured worker count the run dispatched to.
	Workers int
	// Tasks counts scheduler tasks executed across all phases: chunk
	// tasks in the send/apply phases plus one task per partition of each
	// direction in play in the multiply phase.
	Tasks int64
	// Steals counts tasks that ran on a worker other than the one whose
	// span initially held them.
	Steals int64
	// BusyNS is the summed wall time workers spent executing this run's
	// phases.
	BusyNS int64
}
