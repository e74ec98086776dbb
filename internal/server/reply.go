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
// work. Within a series, the integers 0–99 come from strconv's table, a
// value repeating the last one formatted (such as the unreached sentinel on
// every vertex outside a traversal's reach) copies that value's bytes, and
// everything else is formatted as encoding/json formats it (see floats).
// The output is exactly encoding/json's (field order, omitempty, map key
// order, number formatting, trailing newline): reply_test.go holds whole
// documents, FuzzAppendJSONFloat every finite float64 and FuzzReplySeries
// every series of repeats and alternations, to that.

// replyBufSize is the fill level at which a reply buffer is flushed to the
// connection: large enough that an 11 MB reply is a couple of hundred
// writes, small enough to stay in cache beside the engine's working set.
const replyBufSize = 64 << 10

// replySlack is headroom past replyBufSize so the append that crosses the
// fill level does not reallocate: the longest float64 takes 25 bytes.
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

// floats appends vals as a JSON array (null for a nil slice, as
// encoding/json has it), flushing whenever the buffer fills. This loop is the
// encoder: it keeps the buffer in a local so each value costs an append, not
// a load and store through rw. Each value takes one of three paths:
//   - the integers 0–99 (hop counts, short distances) are strconv's table
//     lookup;
//   - a repeat of the memo, the last value that took the third path, copies
//     the bytes that value produced. The unreached sentinels
//     (3.4028234663852886e+38 for sssp, 4294967295 for bfs) and a
//     component's label recur all through a series with small values
//     between them, which neither read nor replace the memo;
//   - everything else goes through appendJSONFloat and becomes the memo. A
//     NaN or ±Inf stops the reply there, so the memo only holds finite
//     values.
//
// The memo compares bits, so 0 and -0 stay distinct.
func (rw *replyWriter) floats(vals []float64) {
	if vals == nil {
		rw.raw("null")
		return
	}
	var (
		memo     [32]byte // the longest float64 takes 25 bytes: -0.0000010000000000000002
		memoLen  int
		memoBits uint64 // +0's bits, which never reach the memo: it starts empty
	)
	buf := append(rw.buf, '[')
	for i, f := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		if f >= 0 && f < 100 && float64(uint8(f)) == f && (f != 0 || !math.Signbit(f)) {
			buf = strconv.AppendUint(buf, uint64(f), 10)
		} else if bits := math.Float64bits(f); bits == memoBits {
			buf = append(buf, memo[:memoLen]...)
		} else {
			start := len(buf)
			var ok bool
			if buf, ok = appendJSONFloat(buf, f); !ok {
				rw.buf = buf
				rw.unsupported(f)
				return
			}
			memoLen, memoBits = copy(memo[:], buf[start:]), bits
		}
		if len(buf) >= replyBufSize {
			rw.buf = buf
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
