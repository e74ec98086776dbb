package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// The reply encoder's contract is "the bytes encoding/json would have sent":
// every test here compares against json.Marshal / json.Encoder directly, so
// the oracle is the library the encoder replaced, not a stored file.

func checkJSONFloat(t testing.TB, f float64) {
	t.Helper()
	got, ok := appendJSONFloat([]byte("x"), f)
	want, err := json.Marshal(f)
	if err != nil {
		if ok || string(got) != "x" {
			t.Fatalf("%v (%#x): encoding/json refuses it (%v), we appended %q", f, math.Float64bits(f), err, got[1:])
		}
		return
	}
	if !ok || string(got[1:]) != string(want) {
		t.Fatalf("%v (%#x): got %q ok=%v, encoding/json says %q", f, math.Float64bits(f), got[1:], ok, want)
	}
}

var jsonFloatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 10, 100, 4294967295, // Unreached hop counts
	0.1, 0.15, -0.5, 1.5, 1e-5, 123456.789,
	1e-6, 9.99999e-7, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), // 'f' → 'e' below 1e-6
	1e21, 1e20, 999999999999999900000, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), // and from 1e21
	-1e21, -1e-7, 1e-7, 1.5e-10, 2.5e+25, 1e100, 1e-100, // exponent clean-up: e-07 → e-7, e+25 stays
	1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, 1 << 64, -(1 << 53), // the integer fast path's edge
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, float64(float32(0.1)), // float32 widened (sssp, widest)
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308, // largest, smallest, subnormals
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range jsonFloatCases {
		checkJSONFloat(t, f)
	}
	rng := gen.NewRNG(7)
	for i := 0; i < 200000; i++ {
		bits := rng.Uint64()
		checkJSONFloat(t, math.Float64frombits(bits))
		checkJSONFloat(t, float64(math.Float32frombits(uint32(bits))))
		checkJSONFloat(t, float64(bits>>uint(bits&63))) // integers of every magnitude
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, c := range jsonFloatCases {
		f.Add(math.Float64bits(c))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkJSONFloat(t, math.Float64frombits(bits))
	})
}

// ramp is a series long enough to cross the flush threshold several times.
func ramp(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// sentinelOr is sentinel on ~40 % of the indexes, in irregular runs — the
// share of RMAT-16 a traversal leaves unreached — and v elsewhere.
func sentinelOr(i int, sentinel, v float64) float64 {
	if (i*7919)%100 < 40 {
		return sentinel
	}
	return v
}

// seriesPalette maps one fuzz byte to a value: the low nibble picks a kind,
// the high nibble an argument. Kinds favour what served series carry — the
// sentinels, small integers and repeats — and raw bit patterns reach every
// other float64, non-finite ones included.
func seriesPalette(b byte, raw, prev float64) float64 {
	arg := float64(b >> 4)
	switch b & 15 {
	case 0, 1:
		return math.MaxFloat32
	case 2:
		return math.MaxUint32
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return arg * 6 // below 100
	case 6:
		return 92 + 2*arg // either side of 100
	case 7:
		return 1<<53 - arg // near 2^53, below it
	case 8:
		return 1<<53 + 2*arg // 2^53 and up
	case 9:
		if arg < 8 {
			return 1e-7 * (arg + 1)
		}
		// Negative widened float32 weights in [1e-6, 1e-5): in 'f' form up
		// to 25 bytes, the longest encoding/json writes for a float64.
		return -float64(float32(1.1e-6 * (arg - 7)))
	case 10:
		return 1e21 * (arg + 1)
	case 11:
		return math.Float64frombits(uint64(b>>4) + 1) // subnormals
	case 12:
		return raw
	case 13:
		return prev // a repeat
	case 14:
		return float64(float32(arg) * 0.37) // a widened float32 distance
	default:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -arg, arg + 0.5}[b>>4%5]
	}
}

// checkSeries asserts floats encodes vals exactly as encoding/json encodes
// the slice, or, when a NaN or ±Inf makes encoding/json refuse it, that floats
// stops there with encoding/json's error, having written exactly the values
// before it and the comma after the last of them. The writer's buffer starts
// with pre bytes of earlier output and no spare capacity.
func checkSeries(t *testing.T, vals []float64, pre int) {
	t.Helper()
	var out bytes.Buffer
	rw := &replyWriter{w: &out, buf: bytes.Repeat([]byte{'x'}, pre)}
	rw.floats(vals)
	got := append(out.Bytes(), rw.buf...)[pre:]
	want, err := json.Marshal(vals)
	if err == nil {
		if rw.err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: got %q (err %v), encoding/json says %q", vals, got, rw.err, want)
		}
		return
	}
	j := slices.IndexFunc(vals, func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) })
	if rw.err == nil || rw.err.Error() != err.Error() {
		t.Fatalf("%v: error %v, encoding/json says %v", vals, rw.err, err)
	}
	if _, ok := appendJSONFloat(nil, vals[j]); ok {
		t.Fatalf("%v: appendJSONFloat accepts %v", vals, vals[j])
	}
	prefix, _ := json.Marshal(vals[:j])
	prefix = prefix[:len(prefix)-1] // drop ']'
	if j > 0 {
		prefix = append(prefix, ',')
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("%v: wrote %q before value %d, want %q", vals, got, j, prefix)
	}
}

// FuzzReplySeries asserts floats encodes a whole series exactly as
// encoding/json encodes the slice, across the hits, misses and evictions of
// its value cache, and that a NaN or ±Inf anywhere — right after a hit or an
// eviction included — stops the series with appendJSONFloat's error, having
// written exactly the values before it (checkSeries). One seed walks every
// argument of the palette's numeric kinds, more distinct values than the
// cache has slots, twice over.
func FuzzReplySeries(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0x15, 0, 2, 0x25, 2, 3, 4, 3, 4}, uint64(0))
	f.Add([]byte{0, 0, 13, 13, 15}, uint64(0))     // NaN after cached repeats
	f.Add([]byte{2, 0x35, 2, 13, 0x1f}, uint64(0)) // +Inf after a cached bfs sentinel
	f.Add([]byte{12, 13, 0, 12, 0x96, 12}, math.Float64bits(0.15))
	f.Add([]byte{4, 3, 4, 3, 13, 7, 8, 7, 0x86, 0x96}, uint64(1))
	f.Add([]byte{9, 10, 11, 0x9b, 14, 0x4e, 12}, uint64(0x7ff8000000000001))
	f.Add([]byte{12, 0, 12, 13, 0x89, 3, 0x89, 13, 0x99, 12}, math.Float64bits(-math.Nextafter(1e-6, 1))) // 25-byte repeats
	var evict []byte
	for _, kind := range []byte{5, 6, 7, 8, 9, 14} {
		for arg := range byte(16) {
			evict = append(evict, arg<<4|kind)
		}
	}
	f.Add(append(evict, evict...), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, raw uint64) {
		vals := make([]float64, len(data))
		prev := 0.0
		for i, b := range data {
			vals[i] = seriesPalette(b, math.Float64frombits(raw), prev)
			prev = vals[i]
		}
		checkSeries(t, vals, 0)
	})
}

// TestReplySeriesCacheEviction lines up, by seriesSlot, the cache traffic
// random series rarely produce: values that share a slot, more distinct
// values than slots, both zeros, the longest values, and NaN and ±Inf right
// after a hit, right after an eviction and under every empty slot's key.
// Each series is also encoded behind a buffer at and past the flush level.
func TestReplySeriesCacheEviction(t *testing.T) {
	// sharing returns n integers other than v in v's slot.
	sharing := func(v float64, n int) []float64 {
		var out []float64
		for i := 0; len(out) < n; i++ {
			if f := float64(i); f != v && seriesSlot(math.Float64bits(f)) == seriesSlot(math.Float64bits(v)) {
				out = append(out, f)
			}
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	long1, long2 := -math.Nextafter(1e-6, 1), float64(float32(-1.1e-6)) // 25 bytes each
	nan, inf := math.NaN(), math.Inf(1)
	a := sharing(math.MaxUint32, 2)
	many := ramp(3*seriesSlots, func(i int) float64 { return float64(i) })
	for i := range seriesSlots {
		many = append(many, float64(i*37%(3*seriesSlots)), float64(i))
	}
	series := [][]float64{
		{a[0], a[1], a[0], a[1], a[1], a[0], math.MaxUint32, a[0], math.MaxUint32},
		append(many, many...),
		{0, negZero, negZero, 0, 0, negZero, sharing(negZero, 1)[0], negZero, 0},
		append([]float64{long1, long2, long1, 3, long2, long2}, append(sharing(long1, 2), long1, long2, long1)...),
		{a[0], a[0], nan},
		{7, a[0], a[0], inf},
		{a[0], a[1], math.Inf(-1)},
		{a[0], a[1], a[0], nan},
		{nan},
	}
	for h := range seriesSlots {
		key := math.Float64frombits(emptySeriesCache[h].bits)
		series = append(series, []float64{float64(h), key}, []float64{key})
	}
	for _, vals := range series {
		for _, pre := range []int{0, replyBufSize - 1, replyBufSize + 40} {
			checkSeries(t, vals, pre)
		}
	}
}

func goldenStats() graphmat.Stats {
	return graphmat.Stats{Iterations: 7, MessagesSent: 1234, EdgesProcessed: 99999, Applies: 42, ActiveSum: 77,
		ColumnsProbed: 5, PushSupersteps: 4, PullSupersteps: 3, Reason: graphmat.Converged,
		Sched: graphmat.SchedStats{Workers: 2, Tasks: 31, Steals: 3, BusyNS: 123456}}
}

// viaEncodingJSON is what writeJSON sent for v before the reply encoder.
func viaEncodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestRunResponseMatchesEncodingJSON(t *testing.T) {
	count := int64(-12345)
	hops := ramp(70000, func(i int) float64 { return float64(i % 11) })
	ranks := ramp(30000, func(i int) float64 { return 1 / float64(i+3) })
	dists := ramp(30000, func(i int) float64 { return float64(float32(i) * 0.37) })
	dists[17] = math.MaxFloat32
	ssspLike := ramp(70000, func(i int) float64 { return sentinelOr(i, math.MaxFloat32, float64(i%60)) })
	bfsLike := ramp(70000, func(i int) float64 { return sentinelOr(i, math.MaxUint32, float64(i%9)) })
	labels := ramp(70000, func(i int) float64 { return float64(100 + 997*(i/9000)) })
	for i := 4500; i < len(labels); i += 9000 {
		labels[i] = float64(i % 100) // a small label inside a run leaves the run's memo in place
	}
	zeros := ramp(5000, func(i int) float64 { return math.Copysign(0, float64(1-2*(i%2))) })
	// Widest-path values repeat a path's minimum weight on many vertices;
	// negative weights in [1e-6, 1e-5) with 17 significant digits take 25
	// bytes, e.g. -0.0000010000000000000002.
	longest := ramp(5000, func(i int) float64 {
		switch {
		case i%7 == 3:
			return float64(i % 60)
		case i/50%2 == 0:
			return -math.Nextafter(1e-6, 1)
		default:
			return float64(float32(-1.1e-6))
		}
	})
	cases := map[string]runResponse{
		"sssp sentinels":    {Graph: "g", Algorithm: "sssp", DurationMS: 84.5, Result: algorithms.Result{Values: ssspLike, Stats: goldenStats(), Epoch: 2}},
		"bfs sentinels":     {Graph: "g", Algorithm: "bfs", DurationMS: 4.25, Result: algorithms.Result{Values: bfsLike, Stats: goldenStats()}},
		"component labels":  {Graph: "g", Algorithm: "components", Result: algorithms.Result{Values: labels, Stats: goldenStats()}},
		"zero signs":        {Graph: "g", Algorithm: "x", Result: algorithms.Result{Values: zeros, Series: map[string][]float64{"z": zeros[1:]}}},
		"longest repeats":   {Graph: "g", Algorithm: "widest", Result: algorithms.Result{Values: longest, Stats: goldenStats()}},
		"integers":          {Graph: "g", Algorithm: "bfs", DurationMS: 12.345, Result: algorithms.Result{Values: hops, Stats: goldenStats(), Epoch: 3}},
		"coalesced":         {Graph: "g", Algorithm: "sssp", Coalesced: true, DurationMS: 0.004, Result: algorithms.Result{Values: dists, Stats: goldenStats()}},
		"cached":            {Graph: "g", Algorithm: "pagerank", Cached: true, Result: algorithms.Result{Values: ranks, Epoch: 1 << 40}},
		"cached+coalesced":  {Graph: "g", Algorithm: "ppr", Cached: true, Coalesced: true, DurationMS: 1e-7, Result: algorithms.Result{Values: ranks[:3]}},
		"series":            {Graph: "web", Algorithm: "hits", DurationMS: 250, Result: algorithms.Result{Series: map[string][]float64{"hub": ranks, "auth": dists, "a<b": nil, "": {}}, Stats: goldenStats()}},
		"count":             {Graph: "g", Algorithm: "triangles", DurationMS: 3, Result: algorithms.Result{Count: &count, Stats: goldenStats(), Epoch: 9}},
		"everything":        {Graph: "g", Algorithm: "x", Cached: true, Coalesced: true, DurationMS: 1.5, Result: algorithms.Result{Values: hops[:5], Series: map[string][]float64{"s": {1, 2.5}}, Count: &count, Epoch: math.MaxUint64}},
		"nothing":           {},
		"empty values":      {Graph: "g", Algorithm: "bfs", Result: algorithms.Result{Values: []float64{}, Series: map[string][]float64{}}},
		"names need escape": {Graph: "a\"b<c>&\u2028\n", Algorithm: "é\x00\xff", Result: algorithms.Result{Values: []float64{1}}},
		"exactly one flush": {Graph: "g", Algorithm: "bfs", Result: algorithms.Result{Values: ramp(replyBufSize/2, func(int) float64 { return 7 })}},
	}
	for name, r := range cases {
		var got bytes.Buffer
		if err := encodeRunResponse(&got, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := viaEncodingJSON(t, r); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: reply differs from encoding/json's:\n got %.300s\nwant %.300s", name, got.Bytes(), want)
		}
	}
}

func TestBatchRunResponseMatchesEncodingJSON(t *testing.T) {
	wide := make([][]float64, 16)
	for s := range wide {
		wide[s] = ramp(9000, func(i int) float64 { return float64((i*(s+1))%13) + float64(s%2)*0.25 })
	}
	sentinels := make([][]float64, 16)
	for s := range sentinels {
		switch s % 4 {
		case 0:
			sentinels[s] = ramp(9000, func(i int) float64 { return sentinelOr(i+s, math.MaxFloat32, float64((i+s)%60)) })
		case 1:
			sentinels[s] = ramp(9000, func(i int) float64 { return sentinelOr(i*s, math.MaxUint32, float64(i%9)) })
		case 2:
			sentinels[s] = ramp(9000, func(i int) float64 { return float64(100 + s*(i/2500)) })
		default:
			sentinels[s] = ramp(9000, func(i int) float64 { return math.Copysign(0, float64(1-2*((i+s)%2))) })
		}
	}
	cases := map[string]batchRunResponse{
		"k=16 sentinels": {Graph: "g", Algorithm: "sssp", DurationMS: 201.5, BatchResult: algorithms.BatchResult{Sources: make([]uint32, 16), Values: sentinels, Stats: goldenStats(), Epoch: 4}},
		"k=16":           {Graph: "g", Algorithm: "sssp", DurationMS: 108.25, BatchResult: algorithms.BatchResult{Sources: []uint32{5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 15, 14, 13, 12, 11, math.MaxUint32}, Values: wide, Stats: goldenStats(), Epoch: 12}},
		"k=1":            {Graph: "g", Algorithm: "bfs", BatchResult: algorithms.BatchResult{Sources: []uint32{3}, Values: wide[:1]}},
		"nothing":        {},
		"empties":        {Graph: "<g>", Algorithm: "ppr", BatchResult: algorithms.BatchResult{Sources: []uint32{}, Values: [][]float64{}}},
		"holes":          {Graph: "g", Algorithm: "ppr", BatchResult: algorithms.BatchResult{Sources: []uint32{1, 2, 3}, Values: [][]float64{nil, {}, {0.5}}}},
	}
	for name, r := range cases {
		var got bytes.Buffer
		if err := encodeBatchRunResponse(&got, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := viaEncodingJSON(t, r); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: reply differs from encoding/json's:\n got %.300s\nwant %.300s", name, got.Bytes(), want)
		}
	}
}

// chunkRecorder records each Write separately.
type chunkRecorder struct {
	writes [][]byte
	fail   error // returned by every Write once set
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// TestReplyIsStreamed: a large reply reaches the connection in buffer-sized
// pieces as it is encoded, not as one document-sized write at the end.
func TestReplyIsStreamed(t *testing.T) {
	r := runResponse{Graph: "g", Algorithm: "bfs", Result: algorithms.Result{Values: ramp(200000, func(i int) float64 { return float64(i) })}}
	var rec chunkRecorder
	if err := encodeRunResponse(&rec, r); err != nil {
		t.Fatal(err)
	}
	want := viaEncodingJSON(t, r)
	if len(rec.writes) < len(want)/(replyBufSize+replySlack) || len(rec.writes) < 4 {
		t.Fatalf("%d-byte reply left in %d writes", len(want), len(rec.writes))
	}
	for i, w := range rec.writes {
		if len(w) > replyBufSize+replySlack {
			t.Fatalf("write %d is %d bytes: the pooled buffer was outgrown", i, len(w))
		}
	}
	if got := bytes.Join(rec.writes, nil); !bytes.Equal(got, want) {
		t.Fatal("the pieces do not add up to the document")
	}

	// A client that went away stops the encoder from formatting the rest;
	// it is not an encoding failure.
	gone := chunkRecorder{fail: io.ErrClosedPipe}
	if err := encodeRunResponse(&gone, r); err != nil {
		t.Fatalf("a failed write is not an encoding error: %v", err)
	}
}

// TestUnencodableRunReplyAbortsTheResponse: a non-finite value cannot be
// JSON. The streamed reply may already be on the wire when it turns up, so
// the response is aborted — the client gets a transport error, never a
// document that parses, and never one more byte after the defect was seen.
func TestUnencodableRunReplyAbortsTheResponse(t *testing.T) {
	for name, at := range map[string]int{"in the first buffer": 3, "after several flushes": 150000} {
		values := ramp(200000, func(i int) float64 { return float64(i) })
		values[at] = math.NaN()
		r := runResponse{Graph: "g", Algorithm: "sssp", Result: algorithms.Result{Values: values}}

		var rec chunkRecorder
		err := encodeRunResponse(&rec, r)
		if err == nil {
			t.Fatalf("%s: NaN was encoded", name)
		}
		sent := bytes.Join(rec.writes, nil)
		if json.Valid(sent) && len(sent) > 0 {
			t.Fatalf("%s: %d bytes that parse as JSON were sent before the abort", name, len(sent))
		}
		if marker := fmt.Sprintf(",%d", at+1); bytes.Contains(sent, []byte(marker+",")) {
			t.Fatalf("%s: output continued past the defect", name)
		}

		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { writeRunReply(w, r) }))
		resp, err := ts.Client().Get(ts.URL)
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				t.Errorf("%s: the client read a complete %d-byte response (status %d)", name, len(body), resp.StatusCode)
			}
		}
		ts.Close()

		batch := batchRunResponse{Graph: "g", Algorithm: "sssp", BatchResult: algorithms.BatchResult{Sources: []uint32{1, 2}, Values: [][]float64{{1}, values}}}
		if err := encodeBatchRunResponse(io.Discard, batch); err == nil {
			t.Fatalf("%s: NaN was encoded in a batch reply", name)
		}
	}
	// ±Inf likewise, and the handler-level panic is the one net/http treats
	// as a deliberate abort.
	defer func() {
		if got := recover(); got != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", got)
		}
	}()
	writeRunReply(httptest.NewRecorder(), runResponse{Result: algorithms.Result{Values: []float64{math.Inf(-1)}}})
}

// TestControlReplyThatWillNotMarshalIs500: writeJSON used to send the
// intended status and then drop the encoder's error — a 200 over an empty
// body.
func TestControlReplyThatWillNotMarshalIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"uptime": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var reply map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || !strings.Contains(reply["error"], "unsupported value") {
		t.Fatalf("body %q (%v), want a JSON error naming the cause", rec.Body.Bytes(), err)
	}

	ok := httptest.NewRecorder()
	writeJSON(ok, http.StatusCreated, map[string]string{"a": "<b>"})
	if ok.Code != http.StatusCreated || !bytes.Equal(ok.Body.Bytes(), viaEncodingJSON(t, map[string]string{"a": "<b>"})) {
		t.Fatalf("status %d body %q", ok.Code, ok.Body.Bytes())
	}
}

// BenchmarkReplyEncode times whole run replies as graphmatd encodes them,
// reporting ns/value:
//
//   - bfs, sssp: 16-source batch replies (16 × 65 536 values) from k = 16
//     runs on the served workloads' graph, RMAT scale 16, edge factor 16,
//     graph seed 1, weights up to 16;
//   - distinct: a 65 536-value series shaped like a ppr reply, every value
//     a different non-integer.
//
// Run it with
//
//	go test -run='^$' -bench=ReplyEncode -benchtime=20x ./internal/server
func BenchmarkReplyEncode(b *testing.B) {
	type reply struct {
		name   string
		doc    runDoc
		values int
	}
	adj := gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1, MaxWeight: 16})
	var pool []uint32 // vertices with an out-edge, so every source reaches part of the graph
	for _, e := range adj.Entries {
		if e.Row != e.Col {
			pool = append(pool, e.Row)
		}
	}
	slices.Sort(pool)
	pool = slices.Compact(pool)
	rng := gen.NewRNG(36)
	for i := range 16 {
		j := i + int(rng.Uint64()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	sources := pool[:16]
	var replies []reply
	for _, name := range []string{"bfs", "sssp"} {
		spec, _ := algorithms.Lookup(name)
		inst, err := spec.Build(adj.Clone(), 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := inst.RunBatch(context.Background(), nil, algorithms.Params{Sources: sources}, nil)
		if err != nil {
			b.Fatal(err)
		}
		replies = append(replies, reply{name, batchRunResponse{Graph: "web", Algorithm: name, BatchResult: res}, len(sources) * len(res.Values[0])})
	}
	ppr := ramp(1<<16, func(i int) float64 { return 1 / float64(i+3) })
	replies = append(replies, reply{"distinct", runResponse{Graph: "web", Algorithm: "ppr", Result: algorithms.Result{Values: ppr}}, len(ppr)})
	for _, r := range replies {
		b.Run(r.name, func(b *testing.B) {
			for b.Loop() {
				if err := r.doc.encode(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.values), "ns/value")
		})
	}
}
