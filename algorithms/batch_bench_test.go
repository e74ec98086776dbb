package algorithms

import (
	"context"
	"fmt"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/sched"
)

// benchRMAT16 is the graph the served workloads use: RMAT scale 16, edge
// factor 16, graph seed 1.
func benchRMAT16() *graphmat.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1, MaxWeight: 16})
}

// benchRoots is a seeded draw of 64 vertices of g with an edge; a width-k
// benchmark run takes the first k.
func benchRoots(g *graphmat.Edges[float32]) []uint32 {
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
	return pool[:64]
}

// BenchmarkBFSBatch measures what one BFS source costs at batch widths 1, 16
// and 64 on benchRMAT16, reporting us/source beside the per-batch ns/op. Run
// it with
//
//	go test -run='^$' -bench=BFSBatch -benchtime=20x ./algorithms
func BenchmarkBFSBatch(b *testing.B) {
	g, err := NewBFSGraph(benchRMAT16(), 0)
	if err != nil {
		b.Fatal(err)
	}
	roots := benchRoots(g.Edges)
	ctx := context.Background()
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for b.Loop() {
				if _, _, err := RunBFSBatch(ctx, g, roots[:k]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*k), "us/source")
		})
	}
}

// BenchmarkPageRank measures one 10-iteration PageRank run on benchRMAT16:
// every superstep pulls every partition whole through the float64 sum fold.
// It reports FlatEdges/op, the edges folded as flat ranges, beside ns/op.
// Run it with
//
//	go test -run='^$' -bench='^BenchmarkPageRank$' -benchtime=20x ./algorithms
func BenchmarkPageRank(b *testing.B) {
	g, err := NewPageRankGraph(benchRMAT16(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var flat int64
	for b.Loop() {
		_, st, err := RunPageRank(ctx, g, WithIterations(10))
		if err != nil {
			b.Fatal(err)
		}
		flat = st.FlatEdges
	}
	b.ReportMetric(float64(flat), "FlatEdges/op")
}

// BenchmarkComponents measures one connected-components run on benchRMAT16,
// whose early supersteps pull whole partitions through the uint32 min fold.
// It reports FlatEdges/op beside ns/op. Run it with
//
//	go test -run='^$' -bench='^BenchmarkComponents$' -benchtime=20x ./algorithms
func BenchmarkComponents(b *testing.B) {
	g, err := NewCCGraph(benchRMAT16(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var flat int64
	for b.Loop() {
		_, st, err := RunConnectedComponents(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		flat = st.FlatEdges
	}
	b.ReportMetric(float64(flat), "FlatEdges/op")
}

// BenchmarkSSSPGrid measures one SSSP run on a 768 × 768 grid from its
// central vertex: ~800 push supersteps with small frontiers, so the
// per-superstep fixed cost (two pool dispatches, the mask sweeps) is most of
// the run. It reports wakes/op, the park-to-run transitions of every shared
// pool's workers per run (sched.Snapshot), beside ns/op and allocs/op. Run it
// with
//
//	go test -run='^$' -bench='^BenchmarkSSSPGrid$' -benchtime=20x -benchmem ./algorithms
func BenchmarkSSSPGrid(b *testing.B) {
	const side = 768
	g, err := NewSSSPGraph(gen.Grid(gen.GridOptions{Width: side, Height: side, Seed: 1}), 0)
	if err != nil {
		b.Fatal(err)
	}
	src := uint32(side/2*side + side/2)
	ctx := context.Background()
	if _, _, err := RunSSSP(ctx, g, src); err != nil { // first-use views off the clock
		b.Fatal(err)
	}
	wakes0 := poolWakes()
	for b.Loop() {
		if _, _, err := RunSSSP(ctx, g, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(poolWakes()-wakes0)/float64(b.N), "wakes/op")
}

// poolWakes sums the wakes of every shared pool's worker slots so far.
func poolWakes() int64 {
	var n int64
	for _, p := range sched.Snapshot() {
		for _, w := range p.PerWorker {
			n += w.Wakes
		}
	}
	return n
}

// BenchmarkBFSOverlay measures a BFS read between two compactions: k = 1 and
// k = 16 runs from benchRoots on a BFS store of benchRMAT16, each world its
// own store —
//
//   - plain: no pending updates;
//   - first-after-batch: a fresh 500-update batch is applied with the timer
//     stopped before each run, so the run pays the first use of the new
//     deltas' row views;
//   - warm-overlay: repeated runs on one overlay.
//
// The batches are a seeded gen.Updates stream over the raw graph, each edge
// applied in both directions as the store's symmetrized structure holds it.
// A batch that trips the store's compaction is followed by the next one, so
// every first-after-batch run reads an overlay. It reports us/run. Run it
// with
//
//	go test -run='^$' -bench=BFSOverlay -benchtime=20x ./algorithms
func BenchmarkBFSOverlay(b *testing.B) {
	const batchSize, nBatches = 500, 64
	adj := benchRMAT16()
	ops := gen.Updates(adj, gen.UpdateOptions{Count: batchSize * nBatches, MaxWeight: 16, Seed: 37})
	batches := make([][]graphmat.Update[float32], nBatches)
	for i := range batches {
		for _, o := range ops[i*batchSize : (i+1)*batchSize] {
			if o.Src != o.Dst {
				batches[i] = append(batches[i],
					graphmat.Update[float32]{Src: o.Src, Dst: o.Dst, Val: o.Weight, Del: o.Del},
					graphmat.Update[float32]{Src: o.Dst, Dst: o.Src, Val: o.Weight, Del: o.Del})
			}
		}
	}
	ctx := context.Background()
	for _, k := range []int{1, 16} {
		for _, world := range []string{"plain", "first-after-batch", "warm-overlay"} {
			b.Run(fmt.Sprintf("k%d/%s", k, world), func(b *testing.B) {
				store, err := NewBFSStore(adj.Clone(), 0)
				if err != nil {
					b.Fatal(err)
				}
				snap := store.Acquire()
				roots := benchRoots(snap.Graph())[:k]
				snap.Release()
				next := 0
				apply := func() {
					for {
						res, err := store.ApplyEdges(batches[next%nBatches])
						if err != nil {
							b.Fatal(err)
						}
						next++
						if !res.Compacted {
							return
						}
					}
				}
				run := func() {
					snap := store.Acquire()
					defer snap.Release()
					if _, _, err := bfsBatch(ctx, snap.Graph(), roots); err != nil {
						b.Fatal(err)
					}
				}
				if world != "plain" {
					apply()
				}
				run() // warm: the base's row views are built before the clock starts
				for b.Loop() {
					if world == "first-after-batch" {
						b.StopTimer()
						apply()
						b.StartTimer()
					}
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/run")
			})
		}
	}
}
