package core

import (
	"errors"
	"fmt"
	"runtime"
)

// Mode selects how a superstep's multiply finds the frontier's columns: a
// sweep of every stored column probing the frontier ("pull", Algorithm 1 as
// the paper wrote it) versus a frontier-driven SpMSpV that looks each sender
// up in the column index ("push"). Both are scatters; the direction change
// of GraphBLAST/Ligra-style direction optimization is the row walk, which a
// Pull superstep takes on its own for FirstMessageFinal programs (see
// Stats.RowSupersteps). Every mode produces bit-identical results — all
// three traversals fold a destination's messages in ascending source order
// within each partition's disjoint output row range — so Mode, like
// Threads, is purely a performance knob.
type Mode int

const (
	// Auto (the zero value) chooses per superstep: push when the frontier's
	// outgoing edge work is a small fraction of the structure's total edges,
	// pull otherwise. See KernelCosts.Choose.
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

// VectorKind selects the sparse-vector representation for the message
// vector (paper §4.4.2 discusses both and measures the bitvector faster).
// The supported Vector × Dispatch combinations are Bitvector with either
// dispatch and Sorted with Boxed; see Config.Vector.
type VectorKind int

const (
	// Bitvector stores messages in a bitvector-masked dense array — the
	// representation the paper selects, and the only one the kernel walks
	// read.
	Bitvector VectorKind = iota
	// Sorted stores messages as a sorted (index, value) tuple array — the
	// paper's rejected alternative. It exists on the Boxed dispatch path
	// only, where together they form the Figure 7 "naive" baseline.
	Sorted
)

// Dispatch selects how user callbacks are invoked from the SpMV inner loop.
type Dispatch int

const (
	// Inlined uses the generic (monomorphized) SpMV: the Go compiler
	// specializes the kernel per program, inlining the callbacks. This is
	// the analogue of the paper's -ipo inter-procedural optimization (§4.5
	// item 2).
	Inlined Dispatch = iota
	// Boxed routes every message and result through interface{} values and
	// func-typed callbacks, preventing inlining — the pre-"+ipo" scalar
	// code of Figure 7.
	Boxed
)

// Schedule selects how matrix partitions are assigned to worker goroutines.
type Schedule int

const (
	// Dynamic has workers pull partitions from a shared queue; with many
	// more partitions than threads this is the paper's load-balancing
	// recipe (§4.5 item 4).
	Dynamic Schedule = iota
	// Static assigns partitions round-robin up front ("the number of graph
	// partitions equals number of threads" regime of the ablation).
	Static
)

// Config controls one engine run. The zero value requests the fully
// optimized configuration on all available cores.
type Config struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// MaxIterations caps the superstep count; <= 0 means run until no
	// vertex is active (the paper's -1 convention).
	MaxIterations int
	// Vector selects the message-vector representation. Sorted is valid
	// only with Dispatch: Boxed (the Figure 7 "naive" step); Sorted with
	// Inlined dispatch is a configuration error, not a fallback.
	Vector VectorKind
	// Dispatch selects inlined or boxed user-callback invocation.
	Dispatch Dispatch
	// Schedule selects dynamic or static partition assignment.
	Schedule Schedule
	// Mode selects the SpMV kernel backend: Auto (default) switches between
	// the push and pull kernels per superstep by frontier density; Pull and
	// Push force one kernel. All three produce bit-identical results. The
	// boxed (naive) dispatch path ignores Mode and always pulls.
	Mode Mode
}

// validate rejects the one Vector × Dispatch combination with no code path:
// the inlined kernels read the bitvector frontier only.
func (c Config) validate() error {
	if c.Vector == Sorted && c.Dispatch == Inlined {
		return errors.New("core: Config{Vector: Sorted, Dispatch: Inlined} is not supported: the sorted message vector exists only on the Boxed dispatch path")
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
	// EdgesProcessed counts edge traversals: ProcessMessage calls on a
	// column-walk superstep — one per (edge, live source column) in a block
	// run — and edge slots examined on a row-walk superstep, each counted
	// once however many columns of a block waited at it (see RowSupersteps).
	EdgesProcessed int64
	// Applies counts Apply calls (vertices that received a reduced value).
	Applies int64
	// ActiveSum is the cumulative size of the active set over supersteps.
	ActiveSum int64
	// ColumnsProbed counts presence probes: per pull superstep, one per
	// stored column of every task's partition; per push superstep, one
	// column-index lookup per frontier vertex in each partition whose
	// stored column range reaches the vertex's frontier word.
	ColumnsProbed int64
	// FlatEdges is the part of EdgesProcessed the pull walk folded as flat
	// edge ranges: batches of stored columns that all carried a message, in
	// tasks covering their partition's whole row range. It equals
	// EdgesProcessed on an all-active pull run over a plain graph and is 0
	// for push supersteps, for block runs of two or more columns and for the
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
	// too) that ran the row walk: the destination-driven gather a
	// FirstMessageFinal program — BFS, reachability — takes once its
	// frontier's edge work outweighs what is left unsettled; a block run
	// takes it over all its columns at once, scanning a row for the columns
	// still unsettled in it. It is 0 for every other program, under forced
	// Push and on the boxed path. On these supersteps the work
	// tallies are walk-dependent, which is why they differ between modes for
	// those two programs and no others: EdgesProcessed counts edge slots
	// examined (settled rows are skipped, an unsettled row is left at its
	// first frontier in-neighbour — usually far fewer than the frontier's
	// edges, at most 14 times as many), ColumnsProbed counts nothing (layers
	// with pending updates keep the column walk and its tallies) and Applies
	// counts only the unsettled vertices — (vertex, column) pairs of a block
	// — a message reached. Vertex state,
	// Iterations, MessagesSent and ActiveSum do not depend on the walk.
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
	// tasks in the send/apply phases plus (possibly row-split) SpMV tasks
	// in the multiply phase.
	Tasks int64
	// Steals counts tasks that ran on a worker other than the one whose
	// span initially held them.
	Steals int64
	// BusyNS is the summed wall time workers spent executing this run's
	// phases.
	BusyNS int64
}
