package server

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"graphmat"
)

// The run-reply encoder. A run reply is a short envelope around one or more
// vertex-length []float64 series — 0.3 MB for one source on a 65 536-vertex
// graph, 11 MB for sixteen — and encoding/json walks such a slice by
// reflection into one whole-document buffer before the first byte leaves.
// This writer appends each value with strconv into a pooled fixed-size
// buffer and hands the buffer to the connection whenever it fills, so a
// reply's memory is the buffer and its first bytes leave after 64 KB of
// work. A served series holds few distinct values (levels, integer
// distances, the unreached sentinel), so each series formats each distinct
// value once, as encoding/json formats it, and copies its bytes from a small
// value cache after that (see floats).
// The output is exactly encoding/json's (field order, omitempty, map key
// order, number formatting, trailing newline): reply_test.go holds whole
// documents, FuzzAppendJSONFloat every finite float64 and FuzzReplySeries
// and TestReplySeriesCacheEviction every series of hits, misses and
// evictions, to that.

// replyBufSize is the fill level at which a reply buffer is flushed to the
// connection: large enough that an 11 MB reply is a couple of hundred
// writes, small enough to stay in cache beside the engine's working set.
const replyBufSize = 64 << 10

// replySlack is headroom past replyBufSize so the append that crosses the
// fill level does not reallocate, and floats' 32-byte copy of a cached value
// past the fill level stays inside the buffer: the longest float64 takes 25
// bytes.
const replySlack = 64

var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, replyBufSize+replySlack)
	return &b
}}

// replyWriter accumulates one reply. err is the first reason the reply
// cannot be completed as valid JSON (a non-finite value, a sub-object that
// would not marshal); werr is a failed Write to w, which means the client is
// gone and there is nobody left to tell. Either one stops all further output.
type replyWriter struct {
	w    io.Writer
	buf  []byte
	werr error
	err  error
}

// flush hands the buffered bytes to w.
func (rw *replyWriter) flush() {
	if rw.werr == nil && rw.err == nil && len(rw.buf) > 0 {
		_, rw.werr = rw.w.Write(rw.buf)
	}
	rw.buf = rw.buf[:0]
}

func (rw *replyWriter) raw(s string) { rw.buf = append(rw.buf, s...) }

// marshaled appends v through encoding/json: the envelope's strings (for
// their escaping) and the small stats object.
func (rw *replyWriter) marshaled(v any) {
	b, err := json.Marshal(v)
	if err != nil && rw.err == nil {
		rw.err = err
	}
	rw.buf = append(rw.buf, b...)
}

func (rw *replyWriter) float(f float64) {
	var ok bool
	if rw.buf, ok = appendJSONFloat(rw.buf, f); !ok {
		rw.unsupported(f)
	}
}

func (rw *replyWriter) unsupported(f float64) {
	if rw.err == nil {
		rw.err = fmt.Errorf("json: unsupported value: %v", f)
	}
}

// seriesSlots is the number of slots in floats' value cache: more than a bfs
// or sssp series on the served graphs has distinct values (levels or
// integer distances, and the unreached sentinel), few enough for the stack.
const seriesSlots = 64

// seriesSlot is the cache slot of a value with float64 bits b: a
// multiplicative hash, whose top bits depend on every bit of b. Small
// integers differ only in the exponent and the top of the mantissa, and
// would all share one slot under b's low bits.
func seriesSlot(b uint64) int { return int(b * 0x9e3779b97f4a7c15 >> 58) }

// cachedValue is one slot of floats' value cache: the float64 bits of the
// value it holds and the bytes that value encodes to, comma first.
type cachedValue struct {
	bits uint64
	n    int
	text [32]byte // ",value": the longest float64 takes 25 bytes, -0.0000010000000000000002
}

// emptySeriesCache is floats' cache with every slot empty. An empty slot's
// key is a NaN that hashes to another slot, so no value's bits ever match
// it; and since a NaN or ±Inf stops the series, no non-finite value ever
// fills a slot either.
var emptySeriesCache = func() (c [seriesSlots]cachedValue) {
	for h := range c {
		nan := uint64(0x7ff8000000000001)
		for seriesSlot(nan) == h {
			nan++
		}
		c[h].bits = nan
	}
	return c
}()

// floats appends vals as a JSON array (null for a nil slice, as
// encoding/json has it), flushing whenever the buffer fills. This loop is the
// encoder: it keeps the buffer in a local so each value costs an append, not
// a load and store through rw.
//
// A served series is a few distinct values in random order — bfs levels,
// integer sssp distances, the unreached sentinel (4294967295 for bfs,
// 3.4028234663852886e+38 for sssp) — so each series formats each distinct
// value once, through a direct-mapped cache on the stack keyed by the
// value's bits (so 0 and -0 stay distinct). A hit copies the slot's whole
// 32-byte array to the end of the buffer and advances by the value's
// length: no call and no variable-length copy. A miss formats the value
// through appendJSONFloat, after its comma, and takes the slot over. The
// first value's comma becomes the array's '['. A NaN or ±Inf misses every
// slot and stops the reply with everything before it written, its own comma
// (or the '[') included.
func (rw *replyWriter) floats(vals []float64) {
	if len(vals) == 0 {
		if vals == nil {
			rw.raw("null")
		} else {
			rw.raw("[]")
		}
		return
	}
	// A hit or a miss copies 32 bytes at the fill level, which the loop keeps
	// below replyBufSize: the pooled buffer's replySlack covers that. Only a
	// buffer with less room grows: a caller's own, or one whose envelope
	// already ran past replyBufSize.
	buf := rw.buf
	if need := max(len(buf), replyBufSize) + replySlack; cap(buf) < need {
		buf = slices.Grow(buf, need-len(buf))
	}
	cache := emptySeriesCache
	for i, f := range vals {
		bits := math.Float64bits(f)
		slot := &cache[seriesSlot(bits)]
		n := len(buf)
		ok := slot.bits == bits
		if ok {
			*(*[32]byte)(buf[n : n+32]) = slot.text
			buf = buf[:n+slot.n]
		} else if buf, ok = appendJSONFloat(append(buf, ','), f); ok {
			slot.bits, slot.n, slot.text = bits, len(buf)-n, *(*[32]byte)(buf[n : n+32])
		}
		if i == 0 {
			buf[n] = '['
		}
		if !ok || len(buf) >= replyBufSize {
			rw.buf = buf
			if !ok {
				rw.unsupported(f)
				return
			}
			if rw.flush(); rw.werr != nil {
				return // nobody is reading: skip formatting the rest
			}
			buf = rw.buf
		}
	}
	rw.buf = append(buf, ']')
}

// head opens either reply kind: both start with the graph and the algorithm.
func (rw *replyWriter) head(graph, algorithm string) {
	rw.raw(`{"graph":`)
	rw.marshaled(graph)
	rw.raw(`,"algorithm":`)
	rw.marshaled(algorithm)
}

// tail closes either reply kind: both end in the run's stats and epoch.
func (rw *replyWriter) tail(stats graphmat.Stats, epoch uint64) {
	rw.raw(`,"stats":`)
	rw.marshaled(stats)
	rw.raw(`,"epoch":`)
	rw.buf = strconv.AppendUint(rw.buf, epoch, 10)
	rw.raw("}\n")
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64, and
// reports false, appending nothing, for NaN and ±Inf, which JSON cannot
// carry. Non-negative integers below 2^53 — every hop count, component label
// and reachability flag — are their own shortest decimal form and skip the
// float formatter. Everything else follows encoding/json's rule: 'f' format
// unless the magnitude is below 1e-6 or at least 1e21, then 'e' with the
// leading zero of a two-digit exponent dropped.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if f >= 0 && f < 1<<53 {
		if u := uint64(f); float64(u) == f && (u != 0 || !math.Signbit(f)) {
			return strconv.AppendUint(b, u, 10), true
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// encodeReply runs encode against a pooled buffer over w and returns the
// reason, if there is one, that what reached w is not a complete JSON
// document.
func encodeReply(w io.Writer, encode func(rw *replyWriter)) error {
	bp := replyBufs.Get().(*[]byte)
	rw := &replyWriter{w: w, buf: (*bp)[:0]}
	encode(rw)
	rw.flush()
	*bp = rw.buf
	replyBufs.Put(bp)
	return rw.err
}

// encodeRunResponse writes r as one line of JSON.
func encodeRunResponse(w io.Writer, r runResponse) error {
	return encodeReply(w, func(rw *replyWriter) {
		rw.head(r.Graph, r.Algorithm)
		rw.raw(`,"cached":`)
		rw.buf = strconv.AppendBool(rw.buf, r.Cached)
		if r.Coalesced {
			rw.raw(`,"coalesced":true`)
		}
		rw.raw(`,"duration_ms":`)
		rw.float(r.DurationMS)
		if len(r.Values) > 0 {
			rw.raw(`,"values":`)
			rw.floats(r.Values)
		}
		if len(r.Series) > 0 {
			rw.raw(`,"series":{`)
			for i, name := range slices.Sorted(maps.Keys(r.Series)) {
				if i > 0 {
					rw.raw(",")
				}
				rw.marshaled(name)
				rw.raw(":")
				rw.floats(r.Series[name])
			}
			rw.raw("}")
		}
		if r.Count != nil {
			rw.raw(`,"count":`)
			rw.buf = strconv.AppendInt(rw.buf, *r.Count, 10)
		}
		rw.tail(r.Stats, r.Epoch)
	})
}

// encodeBatchRunResponse writes r as one line of JSON.
func encodeBatchRunResponse(w io.Writer, r batchRunResponse) error {
	return encodeReply(w, func(rw *replyWriter) {
		rw.head(r.Graph, r.Algorithm)
		rw.raw(`,"duration_ms":`)
		rw.float(r.DurationMS)
		rw.raw(`,"sources":`)
		rw.marshaled(r.Sources)
		rw.raw(`,"values":`)
		if r.Values == nil {
			rw.raw("null")
		} else {
			rw.raw("[")
			for i, column := range r.Values {
				if i > 0 {
					rw.raw(",")
				}
				rw.floats(column)
			}
			rw.raw("]")
		}
		rw.tail(r.Stats, r.Epoch)
	})
}

// runDoc is a run reply of either shape, encoded as one line of JSON.
type runDoc interface{ encode(w io.Writer) error }

func (r runResponse) encode(w io.Writer) error      { return encodeRunResponse(w, r) }
func (r batchRunResponse) encode(w io.Writer) error { return encodeBatchRunResponse(w, r) }

// writeRunReply answers 200 with r, streamed. By the time an unencodable
// value turns up, the status line and part of the body may be on the wire, so
// the only honest way out is to abort the response: the client sees a broken
// transfer, never a document that is invalid or — worse — parses although it
// was cut short. No registry algorithm can produce such a value today, and
// encoding/json would refuse it just the same.
func writeRunReply(w http.ResponseWriter, r runDoc) {
	w.Header().Set("Content-Type", "application/json")
	abortOn(r.encode(w))
}

// abortOn aborts the response in flight when its reply could not be encoded.
func abortOn(err error) {
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}
