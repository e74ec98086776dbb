package graphmat_test

import (
	"context"
	"fmt"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
	"graphmat/internal/kernels"
)

// Engine-side benchmarks: the kernel backend × mode × worker matrix for one
// traversal workload (BFS) and one dense iterative workload (PageRank), plus
// the all-live pull row at a larger scale (BenchmarkEngineAllLive) — make
// bench-engine. The ingestion benchmarks cover the load path; these cover the
// superstep loop.
// Dataset size follows GRAPHMAT_BENCH_SHIFT like the figure benchmarks
// (default -3 → RMAT scale 11).
//
// The backend dimension sweeps every SIMD backend the CPU supports plus the
// scalar reference (kernels.Supported()), so one `make bench-engine` run
// records the per-backend end-to-end numbers. PageRank carries the SumFoldF64
// marker and exercises the ScatterAddF64 fold fast path; BFS is a generic
// min-fold and isolates the frontier word-op and scan dispatch.

// engineBenchScale is the RMAT scale at the configured shift.
func engineBenchScale() int { return 14 + benchShift() }

func engineModes() []graphmat.Mode {
	return []graphmat.Mode{graphmat.Pull, graphmat.Push, graphmat.Auto}
}

var engineWorkers = []int{1, 4, 8}

// reportSchedMetrics attaches the scheduler runtime's utilization counters
// to the benchmark result: tasks and steals per op, and busy-util — the
// fraction of worker×wall time spent inside task bodies (1.0 = perfectly
// busy workers).
func reportSchedMetrics(b *testing.B, s graphmat.SchedStats, workers int) {
	b.ReportMetric(float64(s.Tasks)/float64(b.N), "sched-tasks/op")
	b.ReportMetric(float64(s.Steals)/float64(b.N), "steals/op")
	if e := b.Elapsed().Nanoseconds(); e > 0 && workers > 0 {
		b.ReportMetric(float64(s.BusyNS)/float64(e*int64(workers)), "busy-util")
	}
}

// benchBackends runs body once per supported kernel backend under a
// "backend_<name>" sub-benchmark with that backend forced.
func benchBackends(b *testing.B, body func(b *testing.B)) {
	for _, backend := range kernels.Supported() {
		b.Run("backend_"+backend.String(), func(b *testing.B) {
			restore, ok := kernels.ForceBackend(backend)
			if !ok {
				b.Fatalf("backend %s reported supported but ForceBackend refused it", backend)
			}
			defer restore()
			body(b)
		})
	}
}

// bfsBenchGraph builds the symmetrized RMAT graph of the given scale and
// returns it with its hub — the highest-degree vertex, a root inside the
// giant component — and a workspace.
func bfsBenchGraph(b *testing.B, scale int) (*graphmat.Graph[uint32, float32], uint32, *graphmat.Workspace[uint32, uint32]) {
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
	g, err := algorithms.NewBFSGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	root := uint32(0)
	var best uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := g.OutDegree(v); d > best {
			best, root = d, v
		}
	}
	return g, root, graphmat.NewWorkspace[uint32, uint32](int(g.NumVertices()), graphmat.Bitvector)
}

// BenchmarkEngineBFS is the traversal matrix, from the hub. Its last rows
// (hub_auto) are the direction-optimizing run as a caller gets it — Auto,
// five scales up, where the two or three dense supersteps dominate — and
// report ns per input edge (wall time over the graph's stored edges: what a
// traversal costs per edge it was given, however few it examines) next to
// the share of supersteps that ran the row walk.
func BenchmarkEngineBFS(b *testing.B) {
	g, root, ws := bfsBenchGraph(b, engineBenchScale())
	benchBackends(b, func(b *testing.B) {
		for _, mode := range engineModes() {
			for _, workers := range engineWorkers {
				b.Run(fmt.Sprintf("mode_%s/workers_%d", mode, workers), func(b *testing.B) {
					b.SetBytes(g.NumEdges()) // edges traversed per op, for MB/s-style throughput
					var sched graphmat.SchedStats
					for i := 0; i < b.N; i++ {
						_, stats, err := algorithms.RunBFS(context.Background(), g, root, algorithms.WithThreads(workers), algorithms.WithMode(mode), algorithms.WithWorkspace(ws))
						if err != nil {
							b.Fatal(err)
						}
						sched.Tasks += stats.Sched.Tasks
						sched.Steals += stats.Sched.Steals
						sched.BusyNS += stats.Sched.BusyNS
					}
					reportSchedMetrics(b, sched, workers)
				})
			}
		}
	})

	g, root, ws = bfsBenchGraph(b, engineBenchScale()+5)
	for _, workers := range engineWorkers {
		b.Run(fmt.Sprintf("hub_auto/workers_%d", workers), func(b *testing.B) {
			var steps, rowSteps int64
			for i := 0; i < b.N; i++ {
				_, stats, err := algorithms.RunBFS(context.Background(), g, root, algorithms.WithThreads(workers), algorithms.WithWorkspace(ws))
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Iterations)
				rowSteps += stats.RowSupersteps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/input-edge")
			b.ReportMetric(float64(rowSteps)/float64(steps), "row-walk-frac")
		})
	}
}

func BenchmarkEnginePageRank(b *testing.B) {
	scale := engineBenchScale()
	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 0})
	g, err := algorithms.NewPageRankGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := graphmat.NewWorkspace[float64, float64](int(g.NumVertices()), graphmat.Bitvector)
	benchBackends(b, func(b *testing.B) {
		for _, mode := range engineModes() {
			for _, workers := range engineWorkers {
				b.Run(fmt.Sprintf("mode_%s/workers_%d", mode, workers), func(b *testing.B) {
					var sched graphmat.SchedStats
					for i := 0; i < b.N; i++ {
						_, stats, err := algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(10), algorithms.WithThreads(workers), algorithms.WithMode(mode), algorithms.WithWorkspace(ws))
						if err != nil {
							b.Fatal(err)
						}
						sched.Tasks += stats.Sched.Tasks
						sched.Steals += stats.Sched.Steals
						sched.BusyNS += stats.Sched.BusyNS
					}
					reportSchedMetrics(b, sched, workers)
				})
			}
		}
	})
}

// BenchmarkEngineAllLive is the matrix's dense row: all-active pull
// supersteps, where every column batch is fully live and the walk folds it
// as one edge range (Stats.FlatEdges) — PageRank ×10 through the fused sum
// sink and components (all-live on its first superstep) through the generic
// sink. It runs five scales above the rows before it (RMAT scale 16 at the
// default shift) and reports ns/edge — wall time per edge fold — next to the
// share of folds that went flat. There is one code path and no ablation
// switch: the comparison is against another commit's run.
func BenchmarkEngineAllLive(b *testing.B) {
	adj := gen.RMAT(gen.RMATOptions{Scale: engineBenchScale() + 5, EdgeFactor: 16, Seed: 20150831, MaxWeight: 0})
	pr, err := algorithms.NewPageRankGraph(adj.Clone(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cc, err := algorithms.NewCCGraph(adj, 0)
	if err != nil {
		b.Fatal(err)
	}
	prWS := graphmat.NewWorkspace[float64, float64](int(pr.NumVertices()), graphmat.Bitvector)
	ccWS := graphmat.NewWorkspace[uint32, uint32](int(cc.NumVertices()), graphmat.Bitvector)
	cases := []struct {
		name string
		run  func(opts ...algorithms.Option) (graphmat.Stats, error)
	}{
		{"pagerank", func(opts ...algorithms.Option) (graphmat.Stats, error) {
			_, stats, err := algorithms.RunPageRank(context.Background(), pr, append(opts, algorithms.WithIterations(10), algorithms.WithWorkspace(prWS))...)
			return stats, err
		}},
		{"components", func(opts ...algorithms.Option) (graphmat.Stats, error) {
			_, stats, err := algorithms.RunConnectedComponents(context.Background(), cc, append(opts, algorithms.WithWorkspace(ccWS))...)
			return stats, err
		}},
	}
	benchBackends(b, func(b *testing.B) {
		for _, c := range cases {
			for _, workers := range engineWorkers {
				b.Run(fmt.Sprintf("%s/workers_%d", c.name, workers), func(b *testing.B) {
					var edges, flat int64
					for i := 0; i < b.N; i++ {
						stats, err := c.run(algorithms.WithThreads(workers), algorithms.WithMode(graphmat.Pull))
						if err != nil {
							b.Fatal(err)
						}
						edges += stats.EdgesProcessed
						flat += stats.FlatEdges
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
					b.ReportMetric(float64(flat)/float64(edges), "flat-frac")
				})
			}
		}
	})
}
