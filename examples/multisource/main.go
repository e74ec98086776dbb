// Multisource: many independent single-source queries answered in one
// multi-source block run. GraphMat's SpMV becomes an SpMM over an n×k
// frontier block (k ≤ graphmat.MaxBlockSources), so up to 64 BFS frontiers
// or PPR personalization vectors share every adjacency sweep — the batching
// the service's /v1 run endpoint uses to coalesce concurrent requests.
// The block run folds with the same ProcessMessage/Reduce as a single-source
// run — a program only has to declare graphmat.DstIndependent to batch — so
// per-source results are bit-identical to running each source alone; the
// batch is purely a throughput knob.
//
//	go run ./examples/multisource [-scale 16] [-k 32]
package main

import (
	"context"
	"fmt"
	"time"

	"graphmat/algorithms"
	"graphmat/datagen"
)

func main() {
	scale := 16
	k := 32

	fmt.Printf("building an RMAT scale-%d graph (edge factor 16)\n", scale)
	adj := datagen.RMAT(datagen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 7})
	ctx := context.Background()

	bg, err := algorithms.NewBFSGraph(adj, 0)
	if err != nil {
		panic(err)
	}

	// Spread the sources across the vertex range deterministically, skipping
	// isolated vertices (RMAT leaves some untouched).
	n := adj.NRows
	sources := make([]uint32, 0, k)
	for v := uint32(0); v < n && len(sources) < k; v += n / uint32(k) {
		for u := v; u < n; u++ {
			if bg.OutDegree(u) > 0 {
				sources = append(sources, u)
				break
			}
		}
	}
	k = len(sources)

	// --- BFS: k frontiers advanced together ------------------------------

	start := time.Now()
	for _, src := range sources {
		if _, _, err := algorithms.RunBFS(ctx, bg, src); err != nil {
			panic(err)
		}
	}
	seq := time.Since(start)

	start = time.Now()
	dists, stats, err := algorithms.RunBFSBatch(ctx, bg, sources)
	if err != nil {
		panic(err)
	}
	batched := time.Since(start)

	fmt.Printf("\nBFS from %d sources:\n", k)
	fmt.Printf("  sequential: %.3fs   batched: %.3fs (%.1fx, %d supersteps)\n",
		seq.Seconds(), batched.Seconds(), seq.Seconds()/batched.Seconds(), stats.Iterations)
	for _, i := range []int{0, k / 2, k - 1} {
		reached := 0
		for _, d := range dists[i] {
			if d != algorithms.Unreached {
				reached++
			}
		}
		fmt.Printf("  source %6d reached %d/%d vertices\n", sources[i], reached, n)
	}

	// --- Personalized PageRank: k personalization vectors ----------------
	pg, err := algorithms.NewPersonalizedPageRankGraph(adj, 0)
	if err != nil {
		panic(err)
	}

	start = time.Now()
	for _, src := range sources {
		if _, _, err := algorithms.RunPersonalizedPageRank(ctx, pg, []uint32{src}, algorithms.WithIterations(10)); err != nil {
			panic(err)
		}
	}
	seq = time.Since(start)

	start = time.Now()
	ranks, pstats, err := algorithms.RunPersonalizedPageRankBatch(ctx, pg, sources, algorithms.WithIterations(10))
	if err != nil {
		panic(err)
	}
	batched = time.Since(start)

	fmt.Printf("\npersonalized PageRank from %d sources (10 iterations):\n", k)
	fmt.Printf("  sequential: %.3fs   batched: %.3fs (%.1fx, %d supersteps)\n",
		seq.Seconds(), batched.Seconds(), seq.Seconds()/batched.Seconds(), pstats.Iterations)

	// Each column is that source's own ranking: its neighborhood dominates.
	for _, i := range []int{0, k - 1} {
		best, bestR := uint32(0), 0.0
		for v, r := range ranks[i] {
			if r > bestR {
				best, bestR = uint32(v), r
			}
		}
		fmt.Printf("  source %6d: top vertex %d (rank %.4f)\n", sources[i], best, bestR)
	}
}
