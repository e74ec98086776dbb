package algorithms

import (
	"context"
	"fmt"
	"testing"

	"graphmat/internal/gen"
)

// BenchmarkBFSBatch measures what one BFS source costs at batch widths 1, 16
// and 64 on the graph the served workloads use (RMAT scale 16, edge factor
// 16, graph seed 1), reporting us/source beside the per-batch ns/op. The 64
// roots are a seeded draw of vertices with an edge; a width-k batch runs the
// first k. Run it with
//
//	go test -run='^$' -bench=BFSBatch -benchtime=20x ./algorithms
func BenchmarkBFSBatch(b *testing.B) {
	g, err := NewBFSGraph(gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1, MaxWeight: 16}), 0)
	if err != nil {
		b.Fatal(err)
	}
	var pool []uint32
	for v, d := range g.OutDegrees() {
		if d > 0 {
			pool = append(pool, uint32(v))
		}
	}
	rng := gen.NewRNG(36)
	for i := range 64 {
		j := i + int(rng.Uint64()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	ctx := context.Background()
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for b.Loop() {
				if _, _, err := RunBFSBatch(ctx, g, pool[:k]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*k), "us/source")
		})
	}
}
