package main

import (
	"context"
	"os"
	"runtime"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/baselines/native"
	"graphmat/internal/gen"
	"graphmat/internal/reference"
	"graphmat/internal/sparse"
)

// lib_sparse: the library in-process the other way round. SSSP on a weighted
// grid (the road-network stand-in of the paper's Fig. 4e) runs around a
// thousand supersteps of tiny frontiers — push kernel, mode choice and the
// per-superstep fixed cost dominate, fold throughput barely matters — and
// direction-optimising BFS on the symmetrized RMAT graph crosses from push to
// pull and back in about seven supersteps.

// A measurement round is one SSSP run, its native twin, and bfsPerRound BFS
// runs with theirs. Inputs repeat — every SSSP source is visited ssspReps
// times, every BFS root several times — so a run's medians do not hinge on
// one lucky or unlucky draw.
const (
	bfsPerRound = 4
	ssspReps    = 3
	bfsRoots    = 8
)

// sparseYardstickMS is the reference time of lib_sparse's yardstick: one
// native.SSSP from a central-box source of the grid (all threads), on the
// reference box when quiet.
const sparseYardstickMS = 320

type sparseInputs struct {
	grid     *graphmat.Graph[float32, float32]
	bfs      *graphmat.Graph[uint32, float32]
	gridAdj  *sparse.COO[float32]
	bfsAdj   *sparse.COO[float32]
	natGrid  *native.Graph
	natBFS   *native.Graph
	sources  []uint32 // SSSP sources on the grid
	roots    []uint32 // BFS roots on the RMAT graph
	setupS   float64  // the two algorithm-graph builds, raw
	gridSide uint32
	// setupIndex is the box's speed index around the builds, from yardstick
	// runs taken right before and right after them.
	setupIndex float64
}

// yardstick is one run of lib_sparse's yardstick kernel, in ms.
func (in *sparseInputs) yardstick() float64 {
	t0 := time.Now()
	native.SSSP(in.natGrid, in.sources[0], 0)
	return msSince(t0)
}

func buildSparse(c *config, nSources, nRoots int) (*sparseInputs, error) {
	rmat := rmatGraph(c.sz.denseScale)
	grid := gridGraph(c.sz.gridSide)
	in := &sparseInputs{gridSide: c.sz.gridSide}
	in.sources = sampleRoots(rootCandidates(grid), nSources, gen.NewRNG(subSeed(c.seed, "sssp-sources")), centralBox(c.sz.gridSide))
	in.roots = sampleRoots(rootCandidates(rmat), nRoots, gen.NewRNG(subSeed(c.seed, "bfs-roots")), nil)
	in.gridAdj = grid.Clone() // the grid has no self-loops or duplicates to drop
	graphmat.NormalizeAdjacency(in.gridAdj, 0)
	in.natGrid = nativeFrom(in.gridAdj, false)

	yard := []float64{in.yardstick(), in.yardstick()}
	var err error
	start := time.Now()
	if in.grid, err = algorithms.NewSSSPGraph(grid, 0); err != nil {
		return nil, err
	}
	if in.bfs, err = algorithms.NewBFSGraph(rmat, 0); err != nil {
		return nil, err
	}
	in.setupS = time.Since(start).Seconds()
	yard = append(yard, in.yardstick(), in.yardstick())
	in.setupIndex = speedIndex(sparseYardstickMS, yard)

	in.bfsAdj = in.bfs.Adjacency()
	in.natBFS = nativeFrom(in.bfsAdj, true)
	runtime.GC() // generation garbage must not decide the process's peak RSS
	return in, nil
}

func runLibSparse(ctx context.Context, c *config, r *result) error {
	rounds := c.count(0.85, 2)
	in, err := buildSparse(c, max(rounds/ssspReps, 1), bfsRoots)
	if err != nil {
		return err
	}

	var ssspMS, natSSSPMS, bfsMS, natBFSMS []float64
	var edges int64
	var firstSSSP []float32
	var firstBFS []uint32
	measureStart := time.Now()
	for i := 0; i < rounds && ctx.Err() == nil; i++ {
		src := in.sources[i%len(in.sources)]
		t0 := time.Now()
		dist, st, err := algorithms.RunSSSP(ctx, in.grid, src)
		if err != nil {
			return err
		}
		ssspMS = append(ssspMS, msSince(t0))
		edges += st.EdgesProcessed
		t0 = time.Now()
		natDist := native.SSSP(in.natGrid, src, 0)
		natSSSPMS = append(natSSSPMS, msSince(t0))
		r.Attempted += 2
		if err := sameF32(dist, natDist); err != nil {
			r.fail("sssp from %d vs native: %v", src, err)
		}
		if i == 0 {
			firstSSSP = dist
		}

		for j := 0; j < bfsPerRound; j++ {
			root := in.roots[(i*bfsPerRound+j)%len(in.roots)]
			t0 = time.Now()
			hops, st, err := algorithms.RunBFS(ctx, in.bfs, root)
			if err != nil {
				return err
			}
			bfsMS = append(bfsMS, msSince(t0))
			edges += st.EdgesProcessed
			t0 = time.Now()
			natHops := native.BFS(in.natBFS, root, 0)
			natBFSMS = append(natBFSMS, msSince(t0))
			r.Attempted += 2
			if err := sameU32(hops, natHops); err != nil {
				r.fail("bfs from %d vs native: %v", root, err)
			}
			if i == 0 && j == 0 {
				firstBFS = hops
			}
		}
	}
	measured := time.Since(measureStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}

	// Every run was compared with the native kernel above (exact, cheap); the
	// first of each kind is also held against the sequential reference, whose
	// adjacency-list build costs more than a whole BFS phase.
	if err := sameF32(firstSSSP, reference.SSSP(in.gridAdj.NRows, in.gridAdj.Entries, in.sources[0])); err != nil {
		r.fail("sssp from %d vs reference: %v", in.sources[0], err)
	}
	if err := sameU32(firstBFS, reference.BFS(in.bfsAdj.NRows, in.bfsAdj.Entries, in.roots[0])); err != nil {
		r.fail("bfs from %d vs reference: %v", in.roots[0], err)
	}

	r.Samples["sssp"], r.Samples["native_sssp"], r.Samples["bfs"], r.Samples["native_bfs"] = ssspMS, natSSSPMS, bfsMS, natBFSMS
	// Gated times are at reference speed (see speedIndex); the yardstick is
	// the native SSSP, the longer and steadier of the two native kernels.
	index := speedIndex(sparseYardstickMS, natSSSPMS)
	sssp, bfs := median(ssspMS), median(bfsMS)
	r.set("setup_s", in.setupS*in.setupIndex)
	r.set("primary_ms", sssp*index)
	r.set("secondary_ms", bfs*index)
	// Pair by pair: each engine run against the native run on the same input
	// that followed it.
	r.set("native_ratio", geomean(median(pairRatios(ssspMS, natSSSPMS)), median(pairRatios(bfsMS, natBFSMS))))
	r.set("peak_rss_mb", rss)
	r.set("speed_index", index)
	r.set("setup_raw_s", in.setupS)
	r.set("sssp_ms", sssp)
	r.set("bfs_ms", bfs)
	r.set("medges_per_s", float64(edges)/1e6/(sum(ssspMS)+sum(bfsMS))*1e3)
	r.set("samples_primary", float64(len(ssspMS)))
	r.set("samples_secondary", float64(len(bfsMS)))
	r.set("measured_s", measured)
	r.note("medges_per_s: million edges processed per second of engine time, all SSSP and BFS runs")
	r.note("grid %dx%d: %d edges; RMAT symmetrized: %d edges; %d SSSP sources from the central box x %d, %d BFS roots",
		in.gridSide, in.gridSide, in.grid.NumEdges(), in.bfs.NumEdges(), len(in.sources), ssspReps, len(in.roots))
	return nil
}
