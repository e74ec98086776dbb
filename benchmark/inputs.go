package main

import (
	"bytes"
	"fmt"
	"strconv"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// Input generation: everything a workload hands to the program under test is
// made here, from constants and the run's seed alone, so equal seeds give
// byte-identical graphs, operation lists and request bodies. Generation is the
// benchmark's own work and is never part of a reported time.

// sizes fixes the input dimensions of a run. They are part of each workload's
// identity: the full sizes never change, and the smoke sizes exist only so the
// harness test can drive every code path in seconds.
type sizes struct {
	denseScale  int    // lib_dense / lib_sparse RMAT scale (edgefactor 16)
	gridSide    uint32 // lib_sparse grid is gridSide x gridSide
	serveScale  int    // serve_* RMAT scale (edgefactor 16)
	batchSize   int    // serve_update updates per batch
	multiWidth  int    // serve_query multi-source width
	sourcePool  int    // distinct sources the served mixes draw from
	kernelBytes int    // traced run: bytes per array in the kernel probes
}

var fullSizes = sizes{
	denseScale: 18, gridSide: 768, serveScale: 16, batchSize: 500,
	multiWidth: 16, sourcePool: 64, kernelBytes: 64 << 20,
}

var smokeSizes = sizes{
	denseScale: 11, gridSide: 48, serveScale: 10, batchSize: 100,
	multiWidth: 4, sourcePool: 16, kernelBytes: 1 << 20,
}

// subSeed derives an independent generator seed for one named purpose from
// the run seed, so adding a new consumer never shifts the others' streams.
func subSeed(seed uint64, purpose string) uint64 {
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return gen.NewRNG(h).Uint64()
}

// graphSeed seeds every generated graph. The graph is part of a workload's
// identity, like its size: runs of connected components on two RMAT instances
// of one scale differ by 15% in work (supersteps, edges re-relaxed), which no
// bound on a timing could absorb. What --seed varies is every sampled choice
// on that graph: traversal roots, the served source pool, the request mix,
// the update stream.
const graphSeed = 1

func rmatGraph(scale int) *sparse.COO[float32] {
	return gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: graphSeed, MaxWeight: 16})
}

func gridGraph(side uint32) *sparse.COO[float32] {
	return gen.Grid(gen.GridOptions{Width: side, Height: side, Seed: graphSeed})
}

// rootCandidates returns, ascending, the vertices a workload may start a
// traversal from: those with at least one non-loop out-edge that lie in the
// largest weakly connected component (the Graph500 root rule). In the
// permuted RMAT graphs small ids are often isolated; a run from one is a
// single superstep over zero edges and would poison every per-run median.
func rootCandidates(adj *sparse.COO[float32]) []uint32 {
	n := adj.NRows
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	hasOut := make([]bool, n)
	for _, t := range adj.Entries {
		if t.Row == t.Col {
			continue
		}
		hasOut[t.Row] = true
		if a, b := find(t.Row), find(t.Col); a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	size := make([]uint32, n)
	best := uint32(0)
	for v := uint32(0); v < n; v++ {
		r := find(v)
		size[r]++
		if size[r] > size[best] {
			best = r
		}
	}
	var out []uint32
	for v := uint32(0); v < n; v++ {
		if hasOut[v] && find(v) == best {
			out = append(out, v)
		}
	}
	return out
}

// sampleRoots draws k distinct roots (or all of them, if fewer qualify) from
// the candidates keep accepts, in a seed-determined order.
func sampleRoots(cands []uint32, k int, rng *gen.RNG, keep func(uint32) bool) []uint32 {
	pool := make([]uint32, 0, len(cands))
	for _, v := range cands {
		if keep == nil || keep(v) {
			pool = append(pool, v)
		}
	}
	k = min(k, len(pool))
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

// centralBox keeps grid vertices in the middle eighth of each axis. SSSP
// depth on a grid runs from one side length (centre) to two (corner); drawing
// sources from the central box holds a run's depth within a few percent, so
// with ten runs in a window the median measures the engine and not where the
// sampler landed.
func centralBox(side uint32) func(uint32) bool {
	lo, hi := side*7/16, side*9/16
	return func(v uint32) bool {
		x, y := v%side, v/side
		return x >= lo && x < hi && y >= lo && y < hi
	}
}

// queryOp is one served request of a workload's mix.
type queryOp struct {
	class   string // single, multi, scalar or stream
	algo    string
	sources []uint32 // empty for scalar algorithms
	body    []byte
}

// pprIters bounds personalized PageRank (and served PageRank) requests: the
// registry default of 100 iterations would make one request class dwarf the
// rest of the mix.
const pprIters = 10

func runBody(algo string, sources []uint32, stream bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"algo":%q`, algo)
	switch {
	case stream:
		// The scalar streaming form: progress lines, then a final line shaped
		// like a single-source reply.
		fmt.Fprintf(&b, `,"params":{"source":%d},"stream":true`, sources[0])
	case len(sources) > 0:
		b.WriteString(`,"sources":[`)
		for i, s := range sources {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(uint64(s), 10))
		}
		b.WriteByte(']')
		if algo == "ppr" {
			fmt.Fprintf(&b, `,"params":{"iters":%d}`, pprIters)
		}
	case algo == "pagerank":
		fmt.Fprintf(&b, `,"params":{"iters":%d}`, pprIters)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// queryMix draws the serve_query traffic: 60% single-source bfs/sssp/ppr
// (admission batcher, block engine at k=1), 15% multi-source bfs/sssp, 15%
// repeated scalar pagerank/components (LRU hits after the first), 10%
// streamed bfs. The list is a function of the seed and the pool alone.
func queryMix(seed uint64, client int, pool []uint32, width, count int) []queryOp {
	rng := gen.NewRNG(subSeed(seed, "querymix"+strconv.Itoa(client)))
	ops := make([]queryOp, count)
	for i := range ops {
		u := rng.Float64()
		var op queryOp
		switch {
		case u < 0.60:
			op.class, op.algo = "single", []string{"bfs", "sssp", "ppr"}[rng.Intn(3)]
			op.sources = []uint32{pool[rng.Intn(len(pool))]}
		case u < 0.75:
			op.class, op.algo = "multi", []string{"bfs", "sssp"}[rng.Intn(2)]
			op.sources = sampleRoots(pool, width, rng, nil)
		case u < 0.90:
			op.class, op.algo = "scalar", []string{"pagerank", "components"}[rng.Intn(2)]
		default:
			op.class, op.algo = "stream", "bfs"
			op.sources = []uint32{pool[rng.Intn(len(pool))]}
		}
		op.body = runBody(op.algo, op.sources, op.class == "stream")
		ops[i] = op
	}
	return ops
}

// readerMix draws the serve_update reader's traffic: single-source bfs and
// sssp only, so its latency is comparable with serve_query's primary class.
func readerMix(seed uint64, pool []uint32, count int) []queryOp {
	rng := gen.NewRNG(subSeed(seed, "readermix"))
	ops := make([]queryOp, count)
	for i := range ops {
		op := queryOp{class: "single", algo: []string{"bfs", "sssp"}[rng.Intn(2)]}
		op.sources = []uint32{pool[rng.Intn(len(pool))]}
		op.body = runBody(op.algo, op.sources, false)
		ops[i] = op
	}
	return ops
}

// updateBatches cuts a gen.Updates stream (30% deletes of live base edges,
// fresh inserts, a slice of adversarial churn) into count batches and renders
// each as the NDJSON body POST /edges takes.
func updateBatches(seed uint64, base *sparse.COO[float32], batch, count int) ([][]graphmat.EdgeUpdate, [][]byte, error) {
	ops := gen.Updates(base, gen.UpdateOptions{Count: batch * count, MaxWeight: 16, Seed: subSeed(seed, "updates")})
	batches := make([][]graphmat.EdgeUpdate, count)
	bodies := make([][]byte, count)
	for i := range batches {
		ups := make([]graphmat.EdgeUpdate, batch)
		for j, o := range ops[i*batch : (i+1)*batch] {
			ups[j] = graphmat.EdgeUpdate{Src: o.Src, Dst: o.Dst, Val: o.Weight, Del: o.Del}
		}
		var b bytes.Buffer
		if err := graph.WriteUpdates(&b, ups); err != nil {
			return nil, nil, err
		}
		batches[i], bodies[i] = ups, b.Bytes()
	}
	return batches, bodies, nil
}
