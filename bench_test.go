// Benchmarks regenerating each table and figure of the paper's evaluation
// (§5) as testing.B targets. Dataset sizes default to 2^-3 of the harness
// defaults so `go test -bench=.` completes quickly; set
// GRAPHMAT_BENCH_SHIFT to change (0 = the EXPERIMENTS.md scale, positive
// approaches paper scale). The cmd/experiments binary runs the same
// experiments with full reporting.
package graphmat_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"graphmat/internal/bench"
	"graphmat/internal/counters"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

func benchShift() int {
	if s := os.Getenv("GRAPHMAT_BENCH_SHIFT"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return -3
}

// benchFig4 runs one Figure 4 subplot as dataset/framework sub-benchmarks.
func benchFig4(b *testing.B, algo string, runners func(data *sparse.COO[float32]) []bench.Runner) {
	shift := benchShift()
	for _, d := range bench.Datasets() {
		if !containsAlgo(d.Algorithms, algo) {
			continue
		}
		data := d.Generate(shift)
		for _, r := range runners(data) {
			r := r
			b.Run(fmt.Sprintf("%s/%s", sanitize(d.Name), sanitize(r.Framework)), func(b *testing.B) {
				r.Prepare()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := r.Execute()
					if res.Err != nil {
						b.Skipf("run failed (expected for CombBLAS TC OOM): %v", res.Err)
					}
				}
			})
		}
	}
}

func containsAlgo(list, algo string) bool {
	for _, a := range splitComma(list) {
		if a == algo {
			return true
		}
	}
	return false
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '(', ')', '*', '/':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// BenchmarkTable1Datasets measures stand-in generation for the Table 1
// inventory.
func BenchmarkTable1Datasets(b *testing.B) {
	shift := benchShift()
	for _, d := range bench.Datasets() {
		b.Run(sanitize(d.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := d.Generate(shift)
				if g.NNZ() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFig4aPageRank regenerates Figure 4a (PageRank time/iteration;
// divide ns/op by the 10 iterations).
func BenchmarkFig4aPageRank(b *testing.B) {
	benchFig4(b, "PR", func(data *sparse.COO[float32]) []bench.Runner {
		return bench.PageRankRunners(data, 0, 10)
	})
}

// BenchmarkFig4bBFS regenerates Figure 4b (BFS total time).
func BenchmarkFig4bBFS(b *testing.B) {
	benchFig4(b, "BFS", func(data *sparse.COO[float32]) []bench.Runner {
		return bench.BFSRunners(data, 0)
	})
}

// BenchmarkFig4cTriangleCounting regenerates Figure 4c (TC total time;
// CombBLAS runs the masked SpGEMM with its memory cap).
func BenchmarkFig4cTriangleCounting(b *testing.B) {
	benchFig4(b, "TC", func(data *sparse.COO[float32]) []bench.Runner {
		return bench.TCRunners(data, 0, 0)
	})
}

// BenchmarkFig4dCollaborativeFiltering regenerates Figure 4d (CF
// time/iteration; divide ns/op by the 5 iterations).
func BenchmarkFig4dCollaborativeFiltering(b *testing.B) {
	benchFig4(b, "CF", func(data *sparse.COO[float32]) []bench.Runner {
		return bench.CFRunners(data, 0, 5)
	})
}

// BenchmarkFig4eSSSP regenerates Figure 4e (SSSP total time).
func BenchmarkFig4eSSSP(b *testing.B) {
	benchFig4(b, "SSSP", func(data *sparse.COO[float32]) []bench.Runner {
		return bench.SSSPRunners(data, 0, 8)
	})
}

// BenchmarkTable2Speedups exercises the Table 2 computation: GraphMat vs the
// three frameworks on one representative dataset per algorithm (the full
// table derives from all Figure 4 cells via cmd/experiments).
func BenchmarkTable2Speedups(b *testing.B) {
	shift := benchShift()
	d, _ := bench.DatasetByName("Facebook")
	data := d.Generate(shift)
	for _, r := range bench.PageRankRunners(data, 0, 10) {
		if r.Framework == bench.FwNative {
			continue
		}
		r := r
		b.Run(sanitize(r.Framework), func(b *testing.B) {
			r.Prepare()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Execute()
			}
		})
	}
}

// BenchmarkTable3VsNative exercises the Table 3 comparison: GraphMat vs the
// hand-optimized native kernels on one dataset per algorithm.
func BenchmarkTable3VsNative(b *testing.B) {
	shift := benchShift()
	type row struct {
		name    string
		dataset string
		runners func(data *sparse.COO[float32]) []bench.Runner
	}
	rows := []row{
		{"PageRank", "Facebook", func(d *sparse.COO[float32]) []bench.Runner { return bench.PageRankRunners(d, 0, 10) }},
		{"BFS", "Facebook", func(d *sparse.COO[float32]) []bench.Runner { return bench.BFSRunners(d, 0) }},
		{"TriangleCounting", "RMAT Scale 20", func(d *sparse.COO[float32]) []bench.Runner { return bench.TCRunners(d, 0, 0) }},
		{"CF", "Netflix", func(d *sparse.COO[float32]) []bench.Runner { return bench.CFRunners(d, 0, 5) }},
	}
	for _, rw := range rows {
		ds, ok := bench.DatasetByName(rw.dataset)
		if !ok {
			b.Fatalf("dataset %q missing", rw.dataset)
		}
		data := ds.Generate(shift)
		for _, r := range rw.runners(data) {
			if r.Framework != bench.FwGraphMat && r.Framework != bench.FwNative {
				continue
			}
			r := r
			b.Run(rw.name+"/"+sanitize(r.Framework), func(b *testing.B) {
				r.Prepare()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Execute()
				}
			})
		}
	}
}

// BenchmarkFig5Scalability regenerates Figure 5: GraphMat PageRank and SSSP
// at 1..GOMAXPROCS threads (speedup = ns/op at 1 thread / ns/op at N).
func BenchmarkFig5Scalability(b *testing.B) {
	shift := benchShift()
	fb, _ := bench.DatasetByName("Facebook")
	fl, _ := bench.DatasetByName("Flickr")
	fbData := fb.Generate(shift)
	flData := fl.Generate(shift)
	maxThreads := 0
	for _, th := range []int{1, 2, 4, 8} {
		if maxThreads > 0 && th > maxThreads {
			break
		}
		for _, r := range bench.PageRankRunners(fbData, th, 10) {
			if r.Framework != bench.FwGraphMat {
				continue
			}
			r := r
			b.Run(fmt.Sprintf("PageRank_facebook/threads_%d", th), func(b *testing.B) {
				r.Prepare()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Execute()
				}
			})
		}
		for _, r := range bench.SSSPRunners(flData, th, 8) {
			if r.Framework != bench.FwGraphMat {
				continue
			}
			r := r
			b.Run(fmt.Sprintf("SSSP_flickr/threads_%d", th), func(b *testing.B) {
				r.Prepare()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Execute()
				}
			})
		}
	}
}

// BenchmarkFig6Counters regenerates the Figure 6 counter collection: one
// PageRank run per framework with the counter proxies reported as benchmark
// metrics.
func BenchmarkFig6Counters(b *testing.B) {
	shift := benchShift()
	d, _ := bench.DatasetByName("Facebook")
	data := d.Generate(shift)
	var base counters.Set
	for _, r := range bench.PageRankRunners(data, 0, 10) {
		if r.Framework == bench.FwNative {
			continue
		}
		r := r
		b.Run(sanitize(r.Framework), func(b *testing.B) {
			r.Prepare()
			var set counters.Set
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := r.Execute()
				set = res.Set
			}
			b.StopTimer()
			if r.Framework == bench.FwGraphMat {
				base = set
			}
			if base.WorkItems > 0 {
				rr := set.Ratios(base)
				b.ReportMetric(rr[0], "instr_ratio")
				b.ReportMetric(rr[1], "stall_ratio")
			}
		})
	}
}

// BenchmarkFig7Ablation regenerates Figure 7: the five engine
// configurations on PageRank (facebook stand-in). Speedups are the naive
// ns/op divided by each step's ns/op.
func BenchmarkFig7Ablation(b *testing.B) {
	shift := benchShift()
	o := bench.Options{Shift: shift, PRIters: 5}
	steps := bench.Fig7Steps(o)
	for _, s := range steps {
		s := s
		b.Run(sanitize(s.Name), func(b *testing.B) {
			s.Repartition()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunPR()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ingestion benchmarks: the parallel load
// pipeline at 1/4/8 workers. Worker counts beyond GOMAXPROCS still measure
// correctly — they exercise oversubscription, not speedup.

// ingestWorkerCounts is the ladder every ingestion benchmark climbs.
var ingestWorkerCounts = []int{1, 4, 8}

func ingestAdj() *sparse.COO[float32] {
	scale := 16 + benchShift()
	if scale < 10 {
		scale = 10
	}
	return gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 11, MaxWeight: 100})
}

// BenchmarkLoadEdgeList measures chunk-parallel text edge-list parsing.
func BenchmarkLoadEdgeList(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, ingestAdj()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, w := range ingestWorkerCounts {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := graph.ParseEdgeList(data, graph.LoadOptions{Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadBinary measures sectioned GMATBIN2 decoding.
func BenchmarkLoadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteBinary2(&buf, ingestAdj(), 64); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, w := range ingestWorkerCounts {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := graph.ParseBinary(data, graph.LoadOptions{Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildDCSC measures the scatter-based concurrent partition build
// (sort and dedup excluded — the input is prepared once).
func BenchmarkBuildDCSC(b *testing.B) {
	adj := ingestAdj()
	adj.Transpose()
	adj.SortColMajorParallel(0)
	adj.DedupKeepFirstParallel(0)
	nparts := 64
	for _, w := range ingestWorkerCounts {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts := sparse.BuildPartitionedDCSCParallel(adj, nparts, w)
				if len(parts) != nparts {
					b.Fatal("bad partition count")
				}
			}
		})
	}
}

// BenchmarkIngestSort measures the parallel stable merge sort feeding the
// build.
func BenchmarkIngestSort(b *testing.B) {
	adj := ingestAdj()
	for _, w := range ingestWorkerCounts {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := adj.Clone()
				b.StartTimer()
				c.SortColMajorParallel(w)
			}
		})
	}
}

// BenchmarkAblationPartitionCount sweeps the 1-D partition count for
// GraphMat PageRank — the design choice behind the paper's §4.5 item 4
// ("many more partitions than number of threads"). Read together with
// BenchmarkFig7Ablation's +parallel/+load-balance steps.
func BenchmarkAblationPartitionCount(b *testing.B) {
	shift := benchShift()
	d, _ := bench.DatasetByName("Facebook")
	data := d.Generate(shift)
	for _, parts := range []int{1, 2, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("partitions_%d", parts), func(b *testing.B) {
			runner := bench.PageRankRunnerWithPartitions(data.Clone(), 0, 5, parts)
			runner.Prepare()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner.Execute()
			}
		})
	}
}
