package main

import (
	"context"
	"path/filepath"
	"runtime/debug"

	"graphmat/internal/baselines/native"
	"graphmat/internal/gen"
)

// The four traced runs. Each replays its own workload's operation list in
// depth (the "own" section) and runs every other layer's probes on the
// seed's served-scale graph, so every per-layer metric is a live measurement
// on every workload: a layer the workload never touches still reports what
// that layer costs on the standard input, which is the number a "flat on
// this workload" prediction is checked against.

const (
	shortOps     = 16 // served requests replayed by a workload that is not about serving
	shortBatches = 24 // update batches replayed by a workload that is not about updates
)

func newTracedRun(c *config, r *result) *tracedRun {
	return &tracedRun{c: c, r: r, tr: newTracer(r.Workload)}
}

// finish writes the span file.
func (p *tracedRun) finish() error {
	dir := ensureDir(p.c.outDir)
	if p.c.smoke {
		dir = p.c.tmpDir // smoke results are never recorded
	}
	path := filepath.Join(dir, "trace_"+p.r.Workload+".json")
	p.r.note("%d spans written to %s", len(p.tr.spans), path)
	return p.tr.write(path)
}

// commonProbes runs the layer primitives that no workload owns.
func (p *tracedRun) commonProbes(in *servedInputs) error {
	if err := p.probeIngest(in.master); err != nil {
		return err
	}
	p.probeKernels()
	p.probeSched()
	return nil
}

// servedNatives builds the native structures of the served graph.
func servedNatives(in *servedInputs) (directed, symmetric *native.Graph) {
	d := in.master.Clone()
	d.RemoveSelfLoops()
	s := d.Clone()
	s.Symmetrize()
	return nativeFrom(d, false), nativeFrom(s, true)
}

func traceLibDense(ctx context.Context, c *config, r *result) error {
	p := newTracedRun(c, r)
	in, err := buildDense(c)
	if err != nil {
		return err
	}
	probe, err := buildServed(c)
	if err != nil {
		return err
	}
	roots := sampleRoots(rootCandidates(in.prAdj), 16, gen.NewRNG(subSeed(c.seed, "bfs-roots")), nil)
	if err := traceDenseEngine(ctx, p, in, roots); err != nil {
		return err
	}
	nativeFill(p, in.nat, nativeFrom(in.cc.Adjacency(), true), roots)
	return p.finishLib(ctx, probe)
}

func traceLibSparse(ctx context.Context, c *config, r *result) error {
	p := newTracedRun(c, r)
	in, err := buildSparse(c, c.count(0.25, 2), bfsRoots)
	if err != nil {
		return err
	}
	probe, err := buildServed(c)
	if err != nil {
		return err
	}
	if err := traceSparseEngine(ctx, p, in); err != nil {
		return err
	}
	nativeFill(p, in.natBFS, in.natBFS, in.roots)
	return p.finishLib(ctx, probe)
}

// finishLib is what a library trace does after its own engine section: short
// serving and update replays on the probe graph, the common primitives, the
// span file. The caller's scale-18 inputs are dead by now; they are collected
// first, or they would tax the collector under the serving probes.
func (p *tracedRun) finishLib(ctx context.Context, probe *servedInputs) error {
	debug.FreeOSMemory()
	if err := traceServeSection(ctx, p, probe, readerMix(p.c.seed, probe.pool, shortOps), false); err != nil {
		return err
	}
	if err := p.updateSection(ctx, probe, shortBatches); err != nil {
		return err
	}
	if err := p.commonProbes(probe); err != nil {
		return err
	}
	return p.finish()
}

// updateSection replays n seeded update batches at every write-side depth.
func (p *tracedRun) updateSection(ctx context.Context, in *servedInputs, n int) error {
	batches, bodies, err := updateBatches(p.c.seed, in.master, p.c.sz.batchSize, n)
	if err != nil {
		return err
	}
	return traceUpdateSection(ctx, p, in, batches, bodies)
}

// finishServed is what a served trace does after its own sections: the native
// yardsticks on the served graph, the common primitives, the span file.
func (p *tracedRun) finishServed(in *servedInputs) error {
	directed, symmetric := servedNatives(in)
	nativeFill(p, directed, symmetric, in.pool)
	if err := p.commonProbes(in); err != nil {
		return err
	}
	return p.finish()
}

func traceServeQuery(ctx context.Context, c *config, r *result) error {
	p := newTracedRun(c, r)
	in, err := buildServed(c)
	if err != nil {
		return err
	}
	ops := queryMix(c.seed, 0, in.pool, c.sz.multiWidth, c.count(4, 24))
	if err := traceServeSection(ctx, p, in, ops, true); err != nil {
		return err
	}
	if err := p.updateSection(ctx, in, shortBatches); err != nil {
		return err
	}
	return p.finishServed(in)
}

func traceServeUpdate(ctx context.Context, c *config, r *result) error {
	p := newTracedRun(c, r)
	in, err := buildServed(c)
	if err != nil {
		return err
	}
	if err := traceServeSection(ctx, p, in, readerMix(c.seed, in.pool, c.count(3, shortOps)), true); err != nil {
		return err
	}
	if err := p.updateSection(ctx, in, c.count(8, shortBatches)); err != nil {
		return err
	}
	return p.finishServed(in)
}
