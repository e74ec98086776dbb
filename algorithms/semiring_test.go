package algorithms

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"graphmat"
)

// A declared graphmat.Semiring is a promise the engine acts on without
// checking it: a fused sink folds the declared formula and never calls
// ProcessMessage or Reduce. This file holds every registered program to its
// declaration. Each registry name is classified below by the fold its
// program(s) declare, so registering an algorithm without deciding, or a
// program gaining or losing a declaration, fails by name. Each declaring
// program's ProcessMessage and Reduce are then sampled — on extreme, special
// and random operands — and must agree bit for bit with the declared
// formula. A boolean program declares no formula: what it promises is that a
// message processes to one value whatever the edge and the destination, which
// the column-mask folds hand to every vertex a superstep reaches without
// calling ProcessMessage per edge. Its ProcessMessage is sampled for exactly
// that, and its Reduce must return an operand it is given twice; how the
// promise spans a superstep's messages, first_message_final_test.go probes
// in whole runs.

// semiringTable classifies the vertex program(s) behind every registry name
// by the fold they declare (graphmat.SemiringNone: no declaration).
var semiringTable = map[string]struct {
	programs []any
	declares graphmat.Semiring
}{
	"pagerank":     {[]any{PageRankProgram{}}, graphmat.SemiringSumF64},
	"ppr":          {[]any{PersonalizedPageRankProgram{}}, graphmat.SemiringSumF64},
	"hits":         {[]any{hitsAuthProg{}, hitsHubProg{}}, graphmat.SemiringSumF64},
	"sssp":         {[]any{SSSPProgram{}}, graphmat.SemiringMinPlusF32},
	"widest":       {[]any{WidestPathProgram{}}, graphmat.SemiringMaxMinF32},
	"components":   {[]any{CCProgram{}}, graphmat.SemiringMinU32},
	"bfs":          {[]any{BFSProgram{}}, graphmat.SemiringBoolean},
	"reachability": {[]any{ReachabilityProgram{}}, graphmat.SemiringBoolean},
	"triangles":    {[]any{tcPhase1{}, tcPhase2{}}, graphmat.SemiringNone},
}

// semiringFormula is a declared fold as plain Go over one element type:
// operands are the samples its message and result take, process and reduce
// the expressions the fused sinks compute in place of ProcessMessage and
// Reduce.
type semiringFormula struct {
	operands func(rng *rand.Rand) []any
	process  func(m any, e float32) any
	reduce   func(a, b any) any
}

var semiringFormulas = map[graphmat.Semiring]semiringFormula{
	graphmat.SemiringSumF64: {
		operands: f64Samples,
		process:  func(m any, _ float32) any { return m.(float64) },
		reduce:   func(a, b any) any { return a.(float64) + b.(float64) },
	},
	graphmat.SemiringMinPlusF32: {
		operands: f32Samples,
		process:  func(m any, e float32) any { return m.(float32) + e },
		reduce:   func(a, b any) any { return min(a.(float32), b.(float32)) },
	},
	graphmat.SemiringMaxMinF32: {
		operands: f32Samples,
		process:  func(m any, e float32) any { return min(m.(float32), e) },
		reduce:   func(a, b any) any { return max(a.(float32), b.(float32)) },
	},
	graphmat.SemiringMinU32: {
		operands: u32Samples,
		process:  func(m any, _ float32) any { return m.(uint32) },
		reduce:   func(a, b any) any { return min(a.(uint32), b.(uint32)) },
	},
}

// The samples: the type's extremes and special values, then random bit
// patterns (random float bits include NaN payloads and subnormals).
const randomSamples = 24

var f32Specials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32,
}

func f32Samples(rng *rand.Rand) []any {
	var out []any
	for _, f := range f32Specials {
		out = append(out, f)
	}
	for range randomSamples {
		out = append(out, math.Float32frombits(rng.Uint32()))
	}
	return out
}

func f64Samples(rng *rand.Rand) []any {
	out := []any{math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)}
	for _, f := range f32Specials {
		out = append(out, float64(f))
	}
	for range randomSamples {
		out = append(out, math.Float64frombits(rng.Uint64()))
	}
	return out
}

func u32Samples(rng *rand.Rand) []any {
	out := []any{uint32(0), uint32(1), uint32(math.MaxUint32)}
	for range randomSamples {
		out = append(out, rng.Uint32())
	}
	return out
}

// sampleBits is an operand's bit pattern, so NaNs and ±0 compare exactly.
func sampleBits(v any) uint64 {
	switch v := v.(type) {
	case float64:
		return math.Float64bits(v)
	case float32:
		return uint64(math.Float32bits(v))
	case uint32:
		return uint64(v)
	}
	panic(fmt.Sprintf("sampleBits: unsupported operand type %T", v))
}

// declaredSemiring returns the fold program p declares.
func declaredSemiring(p any) graphmat.Semiring {
	if sf, ok := p.(graphmat.SemiringFold); ok {
		return sf.Semiring()
	}
	return graphmat.SemiringNone
}

func TestSemiringClassification(t *testing.T) {
	names := Names()
	for _, name := range names {
		row, ok := semiringTable[name]
		if !ok {
			t.Errorf("registered algorithm %q is not classified in semiringTable: which fold does its program declare?", name)
			continue
		}
		for _, p := range row.programs {
			if got := declaredSemiring(p); got != row.declares {
				t.Errorf("%s: %T declares semiring %d, the table says %d", name, p, got, row.declares)
			}
		}
	}
	for name := range semiringTable {
		if !slices.Contains(names, name) {
			t.Errorf("semiringTable classifies %q, which is not registered", name)
		}
	}
}

func TestSemiringPromise(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(semiringTable)) {
		row := semiringTable[name]
		f, ok := semiringFormulas[row.declares]
		if !ok && row.declares != graphmat.SemiringBoolean {
			continue // SemiringNone
		}
		for _, p := range row.programs {
			t.Run(fmt.Sprintf("%s/%T", name, p), func(t *testing.T) {
				if !ok {
					checkBooleanPromise(t, p)
					return
				}
				checkSemiringPromise(t, p, f)
			})
		}
	}
}

// checkSemiringPromise calls p's ProcessMessage on every (message, edge,
// destination) sample triple and its Reduce on every ordered pair of
// samples, and holds each result to f's, bit for bit. The destinations are
// the zero property and random ones.
func checkSemiringPromise(t *testing.T, p any, f semiringFormula) {
	rng := rand.New(rand.NewSource(44))
	operands := f.operands(rng)
	var edges []float32
	for _, e := range f32Samples(rng) {
		edges = append(edges, e.(float32))
	}
	pv := reflect.ValueOf(p)
	process, reduce := pv.MethodByName("ProcessMessage"), pv.MethodByName("Reduce")
	opType := reflect.TypeOf(operands[0])
	if mt := process.Type(); mt.In(0) != opType || mt.Out(0) != opType || reduce.Type().In(0) != opType {
		t.Fatalf("%T folds %v messages into %v results; its declared fold is over %v", p, mt.In(0), mt.Out(0), opType)
	}
	dsts := sampleDsts(t, process.Type().In(2), rng)
	for _, m := range operands {
		for _, e := range edges {
			want := sampleBits(f.process(m, e))
			for _, d := range dsts {
				got := process.Call([]reflect.Value{reflect.ValueOf(m), reflect.ValueOf(e), d})[0].Interface()
				if sampleBits(got) != want {
					t.Fatalf("ProcessMessage(%v, %v, %v) = %v (%#x), the declared fold gives %#x", m, e, d, got, sampleBits(got), want)
				}
			}
		}
	}
	for _, a := range operands {
		for _, b := range operands {
			got := reduce.Call([]reflect.Value{reflect.ValueOf(a), reflect.ValueOf(b)})[0].Interface()
			if want := sampleBits(f.reduce(a, b)); sampleBits(got) != want {
				t.Fatalf("Reduce(%v, %v) = %v (%#x), the declared fold gives %#x", a, b, got, sampleBits(got), want)
			}
		}
	}
}

// sampleDsts returns destination properties of type dstType to call
// ProcessMessage with: the zero one and three random ones.
func sampleDsts(t *testing.T, dstType reflect.Type, rng *rand.Rand) []reflect.Value {
	dsts := []reflect.Value{reflect.Zero(dstType)}
	for range 3 {
		d, ok := quick.Value(dstType, rng)
		if !ok {
			t.Fatalf("no random value of %v", dstType)
		}
		dsts = append(dsts, d)
	}
	return dsts
}

// checkBooleanPromise holds boolean program p to its declaration, over
// uint32 messages: for each sampled message, ProcessMessage returns one
// value, bit for bit, across every edge sample (zeros of both signs, both
// infinities, NaN, subnormals, the extremes and random bits) and every
// destination sample, the zero one included; and Reduce of any sampled
// message or processed value with itself returns it.
func checkBooleanPromise(t *testing.T, p any) {
	rng := rand.New(rand.NewSource(45))
	pv := reflect.ValueOf(p)
	process, reduce := pv.MethodByName("ProcessMessage"), pv.MethodByName("Reduce")
	if mt := process.Type(); mt.In(0) != reflect.TypeFor[uint32]() || mt.Out(0) != reflect.TypeFor[uint32]() {
		t.Fatalf("%T folds %v messages into %v results; the sampled boolean programs fold uint32", p, mt.In(0), mt.Out(0))
	}
	dsts := sampleDsts(t, process.Type().In(2), rng)
	edges := f32Samples(rng)
	for _, m := range u32Samples(rng) {
		call := func(e any, d reflect.Value) uint32 {
			return process.Call([]reflect.Value{reflect.ValueOf(m), reflect.ValueOf(e), d})[0].Interface().(uint32)
		}
		one := call(float32(0), dsts[0])
		for _, e := range edges {
			for _, d := range dsts {
				if got := call(e, d); got != one {
					t.Fatalf("ProcessMessage(%v, %v, %v) = %#x, but %#x over the zero edge and destination", m, e, d, got, one)
				}
			}
		}
		for _, a := range []uint32{m.(uint32), one} {
			if got := reduce.Call([]reflect.Value{reflect.ValueOf(a), reflect.ValueOf(a)})[0].Interface().(uint32); got != a {
				t.Fatalf("Reduce(%#x, %#x) = %#x", a, a, got)
			}
		}
	}
}
