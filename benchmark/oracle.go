package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/sparse"
)

// The oracle layer. Library results are compared with internal/reference and
// the native kernels; served results are compared bit for bit with the
// in-process algorithms result on the master adjacency at the response's
// epoch. Every mismatch is one failed operation.

// hashValues folds a value series to 64 bits (FNV-1a over the float64 bit
// patterns), so a sampled response can be checked later without keeping its
// megabyte of values alive during the measurement.
func hashValues(vs []float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (b & 0xff)) * 0x100000001b3
			b >>= 8
		}
	}
	return h
}

// sameU32 and sameF32 compare result vectors exactly and describe the first
// difference.
func sameU32(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("vertex %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func sameF32(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("vertex %d: got %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}

// closeF64 compares within a relative tolerance (PageRank sums in a different
// order in each implementation).
func closeF64(got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > rel*math.Max(math.Abs(want[i]), 1) {
			return fmt.Errorf("vertex %d: got %.15g, want %.15g", i, got[i], want[i])
		}
	}
	return nil
}

// servedOracle answers "what should the daemon have returned" for one edge
// set: registry instances built in-process from a master adjacency, run on
// the scalar engine path (the daemon's single-source path is the block
// engine, so this is also a scalar-vs-block differential).
type servedOracle struct {
	adj   *sparse.COO[float32] // normalized master; never consumed
	insts map[string]algorithms.Instance
	memo  map[string]uint64
}

func newServedOracle(adj *sparse.COO[float32]) *servedOracle {
	return &servedOracle{adj: adj, insts: map[string]algorithms.Instance{}, memo: map[string]uint64{}}
}

// params are the engine parameters the request bodies of runBody ask for.
func oracleParams(algo string, source uint32) algorithms.Params {
	p := algorithms.Params{Source: source}
	if algo == "ppr" || algo == "pagerank" {
		p.Iterations = pprIters
	}
	return p
}

func (o *servedOracle) instance(algo string) (algorithms.Instance, error) {
	if inst, ok := o.insts[algo]; ok {
		return inst, nil
	}
	spec, ok := algorithms.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("oracle: unknown algorithm %q", algo)
	}
	inst, err := spec.Build(o.adj.Clone(), 0)
	if err != nil {
		return nil, err
	}
	o.insts[algo] = inst
	return inst, nil
}

// hash returns the hash of the expected value series for (algo, source).
func (o *servedOracle) hash(algo string, source uint32) (uint64, error) {
	key := fmt.Sprintf("%s/%d", algo, source)
	if h, ok := o.memo[key]; ok {
		return h, nil
	}
	inst, err := o.instance(algo)
	if err != nil {
		return 0, err
	}
	res, err := inst.Run(oracleParams(algo, source), nil)
	if err != nil {
		return 0, err
	}
	h := hashValues(res.Values)
	o.memo[key] = h
	return h, nil
}

// observed is one sampled response reduced to what the oracle needs: the
// request it answered, the epoch the daemon ran it on, and one hash per
// returned value series.
type observed struct {
	op     queryOp
	epoch  uint64
	hashes []uint64
}

// decodeRun parses a run reply — the scalar shape, the multi-source shape, or
// the last line of a stream — into an observed record.
func decodeRun(op queryOp, body []byte) (observed, error) {
	if op.class == "stream" {
		body = bytes.TrimRight(body, "\n")
		if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
			body = body[i+1:]
		}
	}
	ob := observed{op: op}
	if op.class == "multi" {
		var rep struct {
			Values [][]float64 `json:"values"`
			Epoch  uint64      `json:"epoch"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return ob, err
		}
		if len(rep.Values) != len(op.sources) {
			return ob, fmt.Errorf("%d value series for %d sources", len(rep.Values), len(op.sources))
		}
		ob.epoch = rep.Epoch
		for _, vs := range rep.Values {
			ob.hashes = append(ob.hashes, hashValues(vs))
		}
		return ob, nil
	}
	var rep struct {
		Values []float64 `json:"values"`
		Epoch  uint64    `json:"epoch"`
		Error  string    `json:"error"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return ob, err
	}
	if rep.Error != "" {
		return ob, fmt.Errorf("daemon reported %q", rep.Error)
	}
	ob.epoch = rep.Epoch
	ob.hashes = []uint64{hashValues(rep.Values)}
	return ob, nil
}

// check compares one observed response with the oracle of its epoch's edge
// set and returns a description of the first mismatch.
func (o *servedOracle) check(ob observed) error {
	sources := ob.op.sources
	if len(sources) == 0 {
		sources = []uint32{0} // scalar algorithms ignore the source
	}
	for i, s := range sources {
		want, err := o.hash(ob.op.algo, s)
		if err != nil {
			return err
		}
		if ob.hashes[i] != want {
			return fmt.Errorf("%s from %d at epoch %d differs from the in-process result", ob.op.algo, s, ob.epoch)
		}
	}
	return nil
}

// adjacencyAt returns the normalized master adjacency after the first n
// batches: one ApplyToAdjacency over their concatenation, which equals
// applying them one by one because the last mutation of a key wins either way.
func adjacencyAt(base *sparse.COO[float32], batches [][]graphmat.EdgeUpdate, n int) (*sparse.COO[float32], error) {
	var all []graphmat.EdgeUpdate
	for _, b := range batches[:n] {
		all = append(all, b...)
	}
	return graphmat.ApplyToAdjacency(base, all)
}
