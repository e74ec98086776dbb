package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/kernels"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// Layer primitives timed on representative inputs: the parse / sort / DCSC /
// graph-build chain on the probe graph, the SIMD fold primitives on arrays
// larger than the caches, and the worker pool's wake-to-join round trip.
// Every traced run executes all of them, so each per-layer time is a live
// measurement on every workload.

// tracedRun is the state the traced sections share.
type tracedRun struct {
	c  *config
	r  *result
	tr *tracer
}

// medianOf runs fn reps times as spans and returns the median duration in ms.
func (p *tracedRun) medianOf(reps int, name, layer string, setup func() func()) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		fn := setup() // untimed preparation (fresh clones) per repetition
		ms = append(ms, p.tr.call(name, layer, p.tr.newOp(), -1, func(int) { fn() }))
	}
	return median(ms)
}

// probeIngest times the ingestion chain on adj (not consumed): GMATBIN2
// parse, the column-major sort, the partitioned DCSC build, a whole
// graphmat.New, and a snapshot pin.
func (p *tracedRun) probeIngest(adj *sparse.COO[float32]) error {
	var file bytes.Buffer
	if err := graph.WriteBinary2(&file, adj, 0); err != nil {
		return err
	}
	var parseErr error
	p.r.set("graph.parse_ms", p.medianOf(3, "graph.ParseBinary", layerGraph, func() func() {
		return func() {
			if _, err := graph.ParseBinary(file.Bytes(), graph.LoadOptions{}); err != nil {
				parseErr = err
			}
		}
	}))
	if parseErr != nil {
		return parseErr
	}
	p.r.set("sparse.sort_ms", p.medianOf(3, "sparse.SortColMajorParallel", layerSparse, func() func() {
		c := adj.Clone()
		c.Transpose() // the orientation graph.New sorts
		return func() { c.SortColMajorParallel(0) }
	}))
	sortedAdj := adj.Clone()
	sortedAdj.Transpose()
	sortedAdj.SortColMajorParallel(0)
	sortedAdj.DedupKeepFirstParallel(0)
	nparts := 8 * runtime.GOMAXPROCS(0) // graph.New's default partition count
	p.r.set("sparse.dcsc_build_ms", p.medianOf(3, "sparse.BuildPartitionedDCSCParallel", layerSparse, func() func() {
		return func() { sparse.BuildPartitionedDCSCParallel(sortedAdj, nparts, 0) }
	}))
	var buildErr error
	p.r.set("graph.build_ms", p.medianOf(3, "graph.New", layerGraph, func() func() {
		c := adj.Clone()
		return func() {
			if _, err := graphmat.New[float32](c, graphmat.Options{}); err != nil {
				buildErr = err
			}
		}
	}))
	if buildErr != nil {
		return buildErr
	}
	store, err := graphmat.NewStore[float32](adj.Clone(), graphmat.Options{})
	if err != nil {
		return err
	}
	const pins = 200000
	id := p.tr.begin("Store.Acquire+Release x200000", layerGraph, p.tr.newOp(), -1)
	for i := 0; i < pins; i++ {
		store.Acquire().Release()
	}
	p.r.set("graph.pin_ns", float64(p.tr.end(id).Nanoseconds())/pins)
	return nil
}

// kernelTimes holds one backend's per-element (or per-word) costs in ns.
type kernelTimes struct{ scatter, block, popcount, firstNZ, spanLess float64 }

// kernelInputs are the arrays the fold primitives run over; each is
// kernelBytes long, far beyond L2 (and, at the full size, a multiple of what
// one tenant can hold of the box's shared L3).
type kernelInputs struct {
	yvals  []float64
	yw     []uint64
	idx    []uint32 // random destinations, consumed in degree-sized columns
	x, y   []float64
	words  []uint64
	sorted []uint32
}

const (
	scatterColumn = 16 // destinations per ScatterAddF64 call: the RMAT graphs' mean degree
	blockWidth    = 16 // the k of the k=16 served batches
)

func newKernelInputs(bytesPerArray int, seed uint64) *kernelInputs {
	n := bytesPerArray / 8
	in := &kernelInputs{
		yvals:  make([]float64, n),
		yw:     make([]uint64, (n+63)/64),
		idx:    make([]uint32, n/8),
		x:      make([]float64, n/2),
		y:      make([]float64, n/2),
		words:  make([]uint64, n),
		sorted: make([]uint32, 2*n),
	}
	rng := gen.NewRNG(seed)
	for i := range in.idx {
		in.idx[i] = rng.Uint32n(uint32(n))
	}
	for i := range in.x {
		in.x[i] = float64(i & 1023)
	}
	in.words[n-1] = 1 // FirstNonzero scans the whole array
	for i := range in.sorted {
		in.sorted[i] = uint32(i)
	}
	return in
}

// time runs the five primitives on the dispatched backend.
func (in *kernelInputs) time(p *tracedRun, backend string) kernelTimes {
	var kt kernelTimes
	perElem := func(name string, elems int, fn func()) float64 {
		id := p.tr.begin(name+" ("+backend+")", layerKernels, p.tr.newOp(), -1)
		fn()
		return float64(p.tr.end(id).Nanoseconds()) / float64(elems)
	}
	clear(in.yw)
	kt.scatter = perElem("kernels.ScatterAddF64", len(in.idx), func() {
		for i := 0; i+scatterColumn <= len(in.idx); i += scatterColumn {
			kernels.ScatterAddF64(in.yw, in.yvals, in.idx[i:i+scatterColumn], 1.5)
		}
	})
	kt.block = perElem("kernels.BlockAddF64", len(in.y), func() {
		const full = uint64(1)<<blockWidth - 1
		for i := 0; i+blockWidth <= len(in.y); i += blockWidth {
			// Alternate first-write and reduce lanes, as a half-filled row does.
			kernels.BlockAddF64(in.y[i:i+blockWidth], in.x[i:i+blockWidth], full, 0x5555)
		}
	})
	kt.popcount = perElem("kernels.PopcountSum", len(in.words), func() { sink += kernels.PopcountSum(in.words) })
	kt.firstNZ = perElem("kernels.FirstNonzero", len(in.words), func() { sink += kernels.FirstNonzero(in.words) })
	kt.spanLess = perElem("kernels.SpanLess", len(in.sorted), func() { sink += kernels.SpanLess(in.sorted, math.MaxUint32) })
	return kt
}

// sink keeps results of pure calls alive.
var sink int

// probeKernels times the fold primitives on the active backend and again
// with the scalar backend forced, and reports their ratio.
func (p *tracedRun) probeKernels() {
	in := newKernelInputs(p.c.sz.kernelBytes, subSeed(p.c.seed, "kernels"))
	in.time(p, "warm-up") // page in every array before either timed pass
	active := in.time(p, kernels.Active().String())
	scalar := active
	if restore, ok := kernels.ForceBackend(kernels.Scalar); ok {
		scalar = in.time(p, kernels.Scalar.String())
		restore()
	}
	p.r.set("kernels.scatter_add_f64_ns", active.scatter)
	p.r.set("kernels.block_add_f64_ns", active.block)
	p.r.set("kernels.popcount_ns", active.popcount)
	p.r.set("kernels.first_nonzero_ns", active.firstNZ)
	p.r.set("kernels.span_less_ns", active.spanLess)
	p.r.set("kernels.simd_over_scalar", geomean(
		active.scatter/scalar.scatter, active.block/scalar.block, active.popcount/scalar.popcount,
		active.firstNZ/scalar.firstNZ, active.spanLess/scalar.spanLess))
}

// probeSched times the pool's wake-to-join round trip: one Run of one empty
// task per worker.
func (p *tracedRun) probeSched() {
	workers := runtime.GOMAXPROCS(0)
	pool := sched.Shared(workers)
	reps := 20000
	if p.c.smoke {
		reps = 2000
	}
	id := p.tr.begin("sched.Pool.Run (empty tasks)", layerSched, p.tr.newOp(), -1)
	for i := 0; i < reps; i++ {
		pool.Run(workers, nil, func(int, int) {})
	}
	p.r.set("sched.dispatch_us", float64(p.tr.end(id).Nanoseconds())/1e3/float64(reps))
}

// schedWakes sums the park-to-run transitions of every shared pool so far;
// sections difference it around their engine work.
func schedWakes() int64 {
	var n int64
	for _, ps := range sched.Snapshot() {
		for _, w := range ps.PerWorker {
			n += w.Wakes
		}
	}
	return n
}

// overheadFrac is traced over untraced medians minus one.
func overheadFrac(untraced, traced []float64) float64 {
	return median(traced)/median(untraced) - 1
}

// spanInterval converts an observer report into the superstep's interval:
// it ended Total after the run started and lasted Elapsed.
func spanInterval(runStart time.Time, info graphmat.IterationInfo) (time.Time, time.Time) {
	end := runStart.Add(info.Total)
	return end.Add(-info.Elapsed), end
}
