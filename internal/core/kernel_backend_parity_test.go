package core

import (
	"fmt"
	"math"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/kernels"
)

// Engine-level backend differential: for every SIMD backend the CPU supports,
// a run must be bit-identical — vertex properties, frontiers, work tallies —
// to the same run under the scalar oracle, across the full kernel matrix:
// {pull, push, auto} × {base, layered overlay}, for both the generic fold
// path and the SumFoldF64 fast path, scalar (SpMV) and block (SpMM) engines.
// This is the engine-shaped complement of the primitive-level parity tests
// in internal/kernels.

// sumFoldProg is a (+, passthrough) float64 program carrying the SumFoldF64
// marker, routing its column folds through ScatterAddF64 (scalar engine) and
// BlockAddF64 (block engine). Mass grows hop by
// hop, so every superstep up to the iteration cap keeps a live frontier.
type sumFoldProg struct{}

func (sumFoldProg) SendMessage(_ VertexID, p float64) (float64, bool)      { return p * 0.25, p != 0 }
func (sumFoldProg) ProcessMessage(m float64, _ float32, _ float64) float64 { return m }
func (sumFoldProg) Reduce(a, b float64) float64                            { return a + b }
func (sumFoldProg) Apply(r float64, _ VertexID, p *float64) bool {
	*p += r
	return math.Abs(r) > 1e-9
}
func (sumFoldProg) Direction() graph.Direction { return graph.Out }
func (sumFoldProg) ProcessIgnoresDst()         {}
func (sumFoldProg) ReducesBySumF64()           {}

// backendParityFixture builds the two graph worlds once: a fresh base build
// and a layered snapshot (base + overlay batches) of the equivalent edge set
// plus extra overlay columns, both with Both directions materialized.
type backendParityFixture struct {
	base    *graph.Graph[float64, float32]
	layered *graph.Snapshot[float64, float32]
	roots   []uint32
	n       uint32
}

func newBackendParityFixture(t *testing.T) *backendParityFixture {
	t.Helper()
	coo := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 19, MaxWeight: 9})
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	n := coo.NRows
	opts := graph.Options{Partitions: 5, Directions: graph.Both, CompactFraction: -1}
	base, err := graph.NewFromCOO[float64, float32](coo.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := graph.NewStore[float64, float32](coo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range layeredBatches(n) {
		if _, err := store.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := store.Acquire()
	t.Cleanup(snap.Release)
	if snap.Graph().OverlayNNZ() == 0 {
		t.Fatal("fixture is vacuous: no overlay survived")
	}
	return &backendParityFixture{base: base, layered: snap, roots: []uint32{0, 3, n - 1}, n: n}
}

func (f *backendParityFixture) graph(layered bool) *graph.Graph[float64, float32] {
	if layered {
		return f.layered.View()
	}
	return f.base
}

// scalarOutcome captures everything one scalar-engine run produced.
type scalarOutcome struct {
	props  []float64
	active []uint64
	stats  Stats
}

func forceBackendOrFatal(t *testing.T, b kernels.Backend) func() {
	t.Helper()
	restore, ok := kernels.ForceBackend(b)
	if !ok {
		t.Fatalf("backend %s reported supported but ForceBackend refused it", b)
	}
	return restore
}

func TestKernelBackendParityScalarEngine(t *testing.T) {
	simd := kernels.Supported()[1:]
	if len(simd) == 0 {
		t.Skip("no SIMD backend supported on this CPU")
	}
	fix := newBackendParityFixture(t)

	type progCase struct {
		name string
		run  func(g *graph.Graph[float64, float32], cfg Config) (Stats, error)
	}
	progs := []progCase{
		{"sumfold", func(g *graph.Graph[float64, float32], cfg Config) (Stats, error) {
			return Run[float64, float32, float64, float64](g, sumFoldProg{}, cfg)
		}},
	}
	runOne := func(t *testing.T, p progCase, layered bool, cfg Config) scalarOutcome {
		g := fix.graph(layered)
		g.SetAllProps(0)
		g.ClearActive()
		for _, r := range fix.roots {
			g.SetProp(r, 1)
			g.SetActive(r)
		}
		stats, err := p.run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return scalarOutcome{
			props:  append([]float64(nil), g.Props()...),
			active: append([]uint64(nil), g.Active().Words()...),
			stats:  stats,
		}
	}

	for _, p := range progs {
		for _, layered := range []bool{false, true} {
			for _, mode := range []Mode{Pull, Push, Auto} {
				name := fmt.Sprintf("%s/layered_%v/mode_%s", p.name, layered, mode)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Threads: 3, MaxIterations: 12, Mode: mode}
					restore := forceBackendOrFatal(t, kernels.Scalar)
					ref := runOne(t, p, layered, cfg)
					restore()
					for _, b := range simd {
						restore := forceBackendOrFatal(t, b)
						got := runOne(t, p, layered, cfg)
						restore()
						for v := range ref.props {
							if math.Float64bits(got.props[v]) != math.Float64bits(ref.props[v]) {
								t.Fatalf("%s: prop[%d] = %v (%x), scalar %v (%x)", b, v,
									got.props[v], math.Float64bits(got.props[v]),
									ref.props[v], math.Float64bits(ref.props[v]))
							}
						}
						for w := range ref.active {
							if got.active[w] != ref.active[w] {
								t.Fatalf("%s: frontier word %d = %#x, scalar %#x", b, w, got.active[w], ref.active[w])
							}
						}
						// Sched carries wall-clock counters (BusyNS,
						// Steals); backend parity compares the
						// deterministic engine tallies only.
						got.stats.Sched, ref.stats.Sched = SchedStats{}, SchedStats{}
						if got.stats != ref.stats {
							t.Fatalf("%s: stats %+v, scalar %+v", b, got.stats, ref.stats)
						}
					}
				})
			}
		}
	}
}

// TestKernelBackendParityGenericFold runs the non-SumFoldF64 path (float32
// min-plus SSSP) across backends: the generic fold itself is pure Go, but the
// frontier word ops, next-set-word scans and layered SpanLess merges it sits
// on are backend-dispatched.
func TestKernelBackendParityGenericFold(t *testing.T) {
	simd := kernels.Supported()[1:]
	if len(simd) == 0 {
		t.Skip("no SIMD backend supported on this CPU")
	}
	coo := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 6, Seed: 23, MaxWeight: 9})
	coo.SortRowMajor()
	coo.DedupKeepFirst()
	n := coo.NRows
	opts := graph.Options{Partitions: 5, CompactFraction: -1}
	store, err := graph.NewStore[float32, float32](coo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range layeredBatches(n) {
		if _, err := store.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := store.Acquire()
	defer snap.Release()

	runOne := func(t *testing.T, cfg Config) ([]float32, Stats) {
		g := snap.View()
		initDiffState(g, []uint32{0, n - 1})
		stats, err := Run[float32, float32, float32, float32](g, ssspProg{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), g.Props()...), stats
	}
	for _, mode := range []Mode{Pull, Push, Auto} {
		t.Run(fmt.Sprintf("mode_%s", mode), func(t *testing.T) {
			cfg := Config{Threads: 3, MaxIterations: 40, Mode: mode}
			restore := forceBackendOrFatal(t, kernels.Scalar)
			refProps, refStats := runOne(t, cfg)
			restore()
			for _, b := range simd {
				restore := forceBackendOrFatal(t, b)
				gotProps, gotStats := runOne(t, cfg)
				restore()
				for v := range refProps {
					if math.Float32bits(gotProps[v]) != math.Float32bits(refProps[v]) {
						t.Fatalf("%s: prop[%d] = %v, scalar %v", b, v, gotProps[v], refProps[v])
					}
				}
				gotStats.Sched, refStats.Sched = SchedStats{}, SchedStats{}
				if gotStats != refStats {
					t.Fatalf("%s: stats %+v, scalar %+v", b, gotStats, refStats)
				}
			}
		})
	}
}

// TestKernelBackendParityBlockEngine covers the SpMM half: a multi-source
// sum-fold block run (the BlockAddF64 path) must be bit-identical per column
// across backends, on base and layered partitions, in every mode.
func TestKernelBackendParityBlockEngine(t *testing.T) {
	simd := kernels.Supported()[1:]
	if len(simd) == 0 {
		t.Skip("no SIMD backend supported on this CPU")
	}
	fix := newBackendParityFixture(t)
	sources := []uint32{0, 1, 3, 17, 42, fix.n - 2, fix.n - 1}
	k := len(sources)

	runOne := func(t *testing.T, layered bool, cfg Config) ([][]float64, Stats) {
		g := fix.graph(layered)
		st := NewBlockState[float64](int(fix.n), k)
		st.SetAllProps(0)
		for s, src := range sources {
			st.SetProp(src, s, 1)
			st.Activate(src, s)
		}
		stats, err := RunBlock(g, sumFoldProg{}, st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, k)
		for s := range cols {
			cols[s] = make([]float64, fix.n)
			st.Column(s, cols[s])
		}
		return cols, stats
	}
	for _, layered := range []bool{false, true} {
		for _, mode := range []Mode{Pull, Push, Auto} {
			t.Run(fmt.Sprintf("layered_%v/mode_%s", layered, mode), func(t *testing.T) {
				cfg := Config{Threads: 3, MaxIterations: 10, Mode: mode}
				restore := forceBackendOrFatal(t, kernels.Scalar)
				refCols, refStats := runOne(t, layered, cfg)
				restore()
				for _, b := range simd {
					restore := forceBackendOrFatal(t, b)
					gotCols, gotStats := runOne(t, layered, cfg)
					restore()
					for s := range refCols {
						for v := range refCols[s] {
							if math.Float64bits(gotCols[s][v]) != math.Float64bits(refCols[s][v]) {
								t.Fatalf("%s: col %d y[%d] = %v (%x), scalar %v (%x)", b, s, v,
									gotCols[s][v], math.Float64bits(gotCols[s][v]),
									refCols[s][v], math.Float64bits(refCols[s][v]))
							}
						}
					}
					gotStats.Sched, refStats.Sched = SchedStats{}, SchedStats{}
					if gotStats != refStats {
						t.Fatalf("%s: stats %+v, scalar %+v", b, gotStats, refStats)
					}
				}
			})
		}
	}
}

// Compile-time contract check for the test program.
var _ Program[float64, float32, float64, float64] = sumFoldProg{}
