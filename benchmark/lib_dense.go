package main

import (
	"context"
	"os"
	"runtime"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/native"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

// lib_dense: the library in-process on RMAT scale 18. Every vertex is active
// every superstep, so the pull kernel and (for PageRank) the SIMD sum fold do
// nearly all the work; connected components is the same regime on the
// generic fold. The native PageRank kernel on the same edge set is the
// paper's yardstick.

const prRestart = 0.15

// denseYardstickMS is the reference time of lib_dense's yardstick: one
// native.PageRank (10 iterations, all threads) on the workload's graph, on
// the reference box when quiet.
const denseYardstickMS = 60

// nativeFrom builds the native baselines' CSR pair from a row-major sorted,
// deduplicated edge list (what Graph.Adjacency returns). It does by hand what
// native.Build does, with the parallel sort: the sequential sorts inside
// Build cost more than the whole measured phase at this size. symmetric
// inputs share one structure for both directions.
func nativeFrom(adj *sparse.COO[float32], symmetric bool) *native.Graph {
	out := sparse.BuildCSR(adj)
	if symmetric {
		return &native.Graph{N: adj.NRows, Out: out, In: out}
	}
	t := adj.Clone()
	t.Transpose()
	t.SortRowMajorParallel(0)
	return &native.Graph{N: adj.NRows, Out: out, In: sparse.BuildCSR(t)}
}

// denseInputs is what lib_dense measures on.
type denseInputs struct {
	pr     *graphmat.Graph[algorithms.PRVertex, float32]
	cc     *graphmat.Graph[uint32, float32]
	nat    *native.Graph
	prAdj  *sparse.COO[float32] // the PageRank edge set: no self-loops, deduplicated, row-major
	setupS float64              // the two algorithm-graph builds, raw
	// setupIndex is the box's speed index around the builds, from yardstick
	// runs taken right before and right after them.
	setupIndex float64
}

// yardstick is one run of lib_dense's yardstick kernel, in ms.
func (in *denseInputs) yardstick() float64 {
	t0 := time.Now()
	native.PageRank(in.nat, prRestart, pprIters, 0)
	return msSince(t0)
}

// buildDense generates the graph and builds the program's structures. Only
// the two algorithm-graph builds count as set-up: generation and the native
// yardstick's structures are the benchmark's own work.
func buildDense(c *config) (*denseInputs, error) {
	adj := rmatGraph(c.sz.denseScale)
	in := &denseInputs{}
	in.prAdj = adj.Clone()
	in.prAdj.RemoveSelfLoops()
	graphmat.NormalizeAdjacency(in.prAdj, 0)
	in.nat = nativeFrom(in.prAdj, false)

	yard := []float64{in.yardstick(), in.yardstick(), in.yardstick()}
	var err error
	start := time.Now()
	if in.pr, err = algorithms.NewPageRankGraph(adj.Clone(), 0); err != nil {
		return nil, err
	}
	if in.cc, err = algorithms.NewCCGraph(adj, 0); err != nil {
		return nil, err
	}
	in.setupS = time.Since(start).Seconds()
	yard = append(yard, in.yardstick(), in.yardstick(), in.yardstick())
	in.setupIndex = speedIndex(denseYardstickMS, yard)
	runtime.GC() // generation garbage must not decide the process's peak RSS
	return in, nil
}

func runLibDense(ctx context.Context, c *config, r *result) error {
	in, err := buildDense(c)
	if err != nil {
		return err
	}
	rounds := c.count(2.6, 3)

	var prMS, ccMS, natMS []float64
	var ranks, natRanks []float64
	var labels []uint32
	var edges int64
	measureStart := time.Now()
	for i := 0; i < rounds && ctx.Err() == nil; i++ {
		// Engine and yardstick alternate within a round, so a burst of
		// interference from the box lands on both sides of native_ratio.
		t0 := time.Now()
		var st graphmat.Stats
		ranks, st, err = algorithms.RunPageRank(ctx, in.pr, algorithms.WithIterations(pprIters), algorithms.WithRestartProb(prRestart))
		if err != nil {
			return err
		}
		prMS = append(prMS, msSince(t0))
		edges += st.EdgesProcessed

		t0 = time.Now()
		natRanks = native.PageRank(in.nat, prRestart, pprIters, 0)
		natMS = append(natMS, msSince(t0))

		t0 = time.Now()
		labels, st, err = algorithms.RunConnectedComponents(ctx, in.cc)
		if err != nil {
			return err
		}
		ccMS = append(ccMS, msSince(t0))
		edges += st.EdgesProcessed
	}
	measured := time.Since(measureStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}

	// Oracle: the last result of each kind (runs are deterministic, so the
	// last stands for all) against the sequential reference and the yardstick.
	r.Attempted = int64(len(prMS) + len(ccMS) + len(natMS))
	if c.tamper != nil {
		c.tamper(ranks)
	}
	want := reference.PageRank(in.prAdj.NRows, in.prAdj.Entries, prRestart, pprIters)
	if err := closeF64(ranks, want, 1e-9); err != nil {
		r.fail("pagerank vs reference: %v", err)
	}
	if err := closeF64(natRanks, want, 1e-9); err != nil {
		r.fail("native pagerank vs reference: %v", err)
	}
	ccAdj := in.cc.Adjacency()
	if err := sameU32(labels, reference.ConnectedComponents(ccAdj.NRows, ccAdj.Entries)); err != nil {
		r.fail("components vs reference: %v", err)
	}

	r.Samples["pagerank"], r.Samples["components"], r.Samples["native_pagerank"] = prMS, ccMS, natMS
	// Gated times are at reference speed (see speedIndex); the yardstick is
	// this workload's own native PageRank. The ratio is taken pair by pair,
	// each engine run against the yardstick run that followed it.
	index := speedIndex(denseYardstickMS, natMS)
	pr, cc := median(prMS), median(ccMS)
	r.set("setup_s", in.setupS*in.setupIndex)
	r.set("primary_ms", pr*index)
	r.set("secondary_ms", cc*index)
	r.set("native_ratio", median(pairRatios(prMS, natMS)))
	r.set("peak_rss_mb", rss)
	r.set("speed_index", index)
	r.set("setup_raw_s", in.setupS)
	r.set("pagerank_ms", pr)
	r.set("components_ms", cc)
	r.set("medges_per_s", float64(edges)/1e6/(sum(prMS)+sum(ccMS))*1e3)
	r.set("samples_primary", float64(len(prMS)))
	r.set("samples_secondary", float64(len(ccMS)))
	r.set("measured_s", measured)
	r.note("medges_per_s: million edges processed per second of engine time, all PageRank and components runs")
	r.note("graph: %d vertices, %d PageRank edges, %d symmetrized edges", in.prAdj.NRows, in.pr.NumEdges(), in.cc.NumEdges())
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
