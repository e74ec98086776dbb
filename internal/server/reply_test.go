package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
	cases := map[string]runResponse{
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
	cases := map[string]batchRunResponse{
		"k=16":    {Graph: "g", Algorithm: "sssp", DurationMS: 108.25, BatchResult: algorithms.BatchResult{Sources: []uint32{5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 15, 14, 13, 12, 11, math.MaxUint32}, Values: wide, Stats: goldenStats(), Epoch: 12}},
		"k=1":     {Graph: "g", Algorithm: "bfs", BatchResult: algorithms.BatchResult{Sources: []uint32{3}, Values: wide[:1]}},
		"nothing": {},
		"empties": {Graph: "<g>", Algorithm: "ppr", BatchResult: algorithms.BatchResult{Sources: []uint32{}, Values: [][]float64{}}},
		"holes":   {Graph: "g", Algorithm: "ppr", BatchResult: algorithms.BatchResult{Sources: []uint32{1, 2, 3}, Values: [][]float64{nil, {}, {0.5}}}},
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

// oldWriteReply is the reply path before the reply encoder, kept as the
// benchmark's baseline.
func oldWriteReply(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// BenchmarkRunReplyEncode: one reply of 65 536 vertices (the serve_query
// graph) per source, old against new, for the three value populations the
// registry produces: integers (bfs, components, reachability), float32
// widened to float64 (sssp, widest) and full float64 (pagerank, ppr).
func BenchmarkRunReplyEncode(b *testing.B) {
	const n = 1 << 16
	rng := gen.NewRNG(11)
	kinds := []struct {
		name string
		at   func() float64
	}{
		{"ints", func() float64 { return float64(rng.Intn(12)) }},
		{"float32", func() float64 { return float64(float32(rng.Float64() * 40)) }},
		{"float64", func() float64 { return rng.Float64() / n }},
	}
	for _, kind := range kinds {
		columns := make([][]float64, 16)
		sources := make([]uint32, 16)
		for s := range columns {
			columns[s] = ramp(n, func(int) float64 { return kind.at() })
			sources[s] = uint32(s)
		}
		single := runResponse{Graph: "g", Algorithm: "bfs", DurationMS: 24.5, Result: algorithms.Result{Values: columns[0], Stats: goldenStats()}}
		wide := batchRunResponse{Graph: "g", Algorithm: "bfs", DurationMS: 108, BatchResult: algorithms.BatchResult{Sources: sources, Values: columns, Stats: goldenStats()}}
		encoders := []struct {
			name   string
			encode func() error
		}{
			{"k=1/old", func() error { return oldWriteReply(io.Discard, single) }},
			{"k=1/new", func() error { return encodeRunResponse(io.Discard, single) }},
			{"k=16/old", func() error { return oldWriteReply(io.Discard, wide) }},
			{"k=16/new", func() error { return encodeBatchRunResponse(io.Discard, wide) }},
		}
		for _, enc := range encoders {
			b.Run(kind.name+"/"+enc.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := enc.encode(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
