// Command benchmark is the repository's one measuring stick: four seeded
// workloads over the whole stack — the library in-process and a live
// graphmatd child under client load — each checked against an oracle, with
// end-to-end metrics from an untraced run and a layer-by-layer breakdown from
// a separate traced run. BENCHMARK.json at the repository root is its
// contract; README.md in this directory is the glossary.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload lib_dense --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --seed 1                # all four workloads, untraced
//	bash benchmark/run.sh --seed 1 --trace 1      # all four, traced
//	bash benchmark/run.sh -compare a.ndjson b.ndjson
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. Metrics holds the
// contract set (every end-to-end metric untraced, every per-layer metric
// traced); Detail holds further named numbers that are reported and
// comparable but not gated.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
	// Samples keeps the raw per-operation timings (ms) behind the medians, by
	// class, so a record can be re-analysed without re-running.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Notes   []string             `json:"notes,omitempty"`
	Env     *envBlock            `json:"env,omitempty"`

	shownFailures int
}

// fail counts one failed operation (non-2xx, transport error, oracle
// mismatch) and reports the first few on stderr.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.shownFailures < 10 {
		r.shownFailures++
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", r.Workload, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	if def.gated(r.Trace) {
		r.Metrics[name] = metric{Value: v, Unit: def.Unit}
	} else {
		r.Detail[name] = metric{Value: v, Unit: def.Unit}
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// invalid marks the run as not a valid measurement (a precondition of the
// workload did not hold) without counting a failed operation.
func (r *result) invalid(format string, args ...any) {
	r.Correct = false
	r.note("INVALID: "+format, args...)
}

// config is one invocation's settings.
type config struct {
	root    string // repository root (holds go.mod, cmd/graphmatd, BENCHMARK.json)
	outDir  string // results and span files
	tmpDir  string // inputs handed to the daemon, data dirs, daemon logs
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
	sz      sizes

	// tamper, when set, corrupts a result on its way to the oracle. Only the
	// harness's own test sets it, to prove a mismatch reaches the exit code.
	tamper func(values []float64)
}

// count scales a per-second operation rate by the run length. Workloads run
// fixed, seed-derived operation lists whose length is proportional to
// --seconds (the rates are calibrated so the measured phase lasts about that
// long on the reference box), so counts repeat exactly for a seed and a run
// is as long on a change as on its parent.
func (c *config) count(perSecond float64, floor int) int {
	return max(int(perSecond*float64(c.seconds)), floor)
}

// workload is one entry of the benchmark.
type workload struct {
	name  string
	run   func(ctx context.Context, c *config, r *result) error // untraced
	trace func(ctx context.Context, c *config, r *result) error // traced
}

var workloads = []workload{
	{"lib_dense", runLibDense, traceLibDense},
	{"lib_sparse", runLibSparse, traceLibSparse},
	{"serve_query", runServeQuery, traceServeQuery},
	{"serve_update", runServeUpdate, traceServeUpdate},
}

// findRoot walks up from the working directory to the directory whose go.mod
// declares module graphmat.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module graphmat\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module graphmat above the working directory; pass -root")
		}
		dir = parent
	}
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		root     = fs.String("root", "", "repository root (default: found from the working directory)")
		name     = fs.String("workload", "", "run one workload and print the contract's JSON line; empty runs all four")
		seed     = fs.Uint64("seed", 1, "workload seed: equal seeds give byte-identical inputs")
		seconds  = fs.Int("seconds", 12, "length of the measured phase; operation counts scale with it")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced in-process run, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny sizes for the harness test; results are never recorded")
		out      = fs.String("out", "", "NDJSON file the run's full record is appended to (default <root>/benchmark/out/results.ndjson)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.ndjson b.ndjson")
		listOnly = fs.Bool("list", false, "print the workloads and metric tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		*root = r
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		code, err := compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return code
	}
	if *listOnly {
		printTables(os.Stdout)
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	c := &config{
		root:    *root,
		outDir:  filepath.Join(*root, "benchmark", "out"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		smoke:   *smoke,
		sz:      fullSizes,
	}
	if c.smoke {
		c.sz = smokeSizes
	}
	tmp, err := os.MkdirTemp(ensureDir(filepath.Join(*root, ".bench_build", "tmp")), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	c.tmpDir = tmp
	defer os.RemoveAll(tmp)

	// A signal cancels the context; workloads stop their daemon on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	path := *out
	switch {
	case c.smoke:
		path = "" // smoke results are never recorded
	case path == "":
		path = filepath.Join(ensureDir(c.outDir), "results.ndjson")
	}
	return runWorkloads(ctx, c, selected, path, os.Stdout)
}

// runWorkloads runs the selected workloads in order. For each it prints the
// report on stderr, appends the full record to recordPath (unless empty) and
// writes the contract's line to stdout. The return value is the process exit
// code: 0 all correct, 1 some operation failed or a run was invalid, 2 the
// harness itself failed (then no result line is printed for that workload).
func runWorkloads(ctx context.Context, c *config, selected []workload, recordPath string, stdout io.Writer) int {
	env := captureEnv(c)
	allCorrect := true
	for _, w := range selected {
		r := &result{
			Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Correct: true,
			Metrics: map[string]metric{}, Detail: map[string]metric{}, Samples: map[string][]float64{}, Env: env,
		}
		fn := w.run
		if c.trace {
			fn = w.trace
		}
		if err := fn(ctx, c, r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		if missing := missingMetrics(r); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: workload did not report %v\n", w.name, missing)
			return 2
		}
		r.Correct = r.Correct && r.Failed == 0
		allCorrect = allCorrect && r.Correct
		report(os.Stderr, r)
		if recordPath != "" {
			if err := appendRecord(recordPath, r); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
		// The contract's line: exactly these four keys, last on stdout.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// ensureDir creates dir if needed and returns it; a failure surfaces at the
// first write into it.
func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// missingMetrics lists contract metrics the run did not set.
func missingMetrics(r *result) []string {
	var missing []string
	for _, d := range metricDefs {
		if d.gated(r.Trace) {
			if _, ok := r.Metrics[d.Name]; !ok {
				missing = append(missing, d.Name)
			}
		}
	}
	return missing
}

// report prints one run's numbers by name, with units, for people.
func report(w *os.File, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %ds  %s  correct=%v  attempted=%d failed=%d (failed_frac %.6f)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	print := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "  %s\n", title)
		}
		for _, n := range names {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	print("metrics", r.Metrics)
	print("detail", r.Detail)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// appendRecord appends the run's full record as one NDJSON line.
func appendRecord(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
