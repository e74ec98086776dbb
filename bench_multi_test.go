package graphmat_test

import (
	"context"
	"fmt"
	"testing"

	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// Multi-source benchmarks: the throughput of answering k independent
// single-source queries as one n×k block run versus k scalar runs (make
// bench-multi). k=1 measures the
// block path's overhead over the scalar kernel; k=8 and k=32 measure the
// SpMV→SpMM amortization — one adjacency sweep serving every
// still-unconverged column. Dataset size follows GRAPHMAT_BENCH_SHIFT like
// the other benchmarks (default -3 → RMAT scale 11, edge factor 16).

// multiBenchSources picks k deterministic non-isolated sources.
func multiBenchSources(b *testing.B, outDeg func(uint32) uint32, n uint32, k int) []uint32 {
	b.Helper()
	sources := make([]uint32, 0, k)
	for v := uint32(0); v < n && len(sources) < k; v += n / uint32(k) {
		for u := v; u < n; u++ {
			if outDeg(u) > 0 {
				sources = append(sources, u)
				break
			}
		}
	}
	if len(sources) < k {
		b.Fatalf("found only %d non-isolated sources", len(sources))
	}
	return sources
}

func BenchmarkBatchBFS(b *testing.B) {
	scale := 14 + benchShift()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831})
	g, err := algorithms.NewBFSGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 8, 32} {
		sources := multiBenchSources(b, g.OutDegree, g.NumVertices(), k)
		b.Run(fmt.Sprintf("k_%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.RunBFSBatch(ctx, g, sources); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/source")
		})
	}
}

func BenchmarkBatchPPR(b *testing.B) {
	scale := 14 + benchShift()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831})
	g, err := algorithms.NewPersonalizedPageRankGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 8, 32} {
		sources := multiBenchSources(b, g.OutDegree, g.NumVertices(), k)
		b.Run(fmt.Sprintf("k_%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.RunPersonalizedPageRankBatch(ctx, g, sources,
					algorithms.WithIterations(10)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/source")
		})
	}
}
