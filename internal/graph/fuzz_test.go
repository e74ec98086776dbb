package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"graphmat/internal/sparse"
)

// COOF abbreviates the concrete triple type the readers produce.
type COOF = sparse.COO[float32]

func NewCOOF(n uint32) *COOF { return sparse.NewCOO[float32](n, n) }

// The fuzz harness holds the readers to two promises: arbitrary input never
// panics or allocates beyond the input's own size (headers are claims, not
// budgets), and whenever a parse succeeds, the parallel chunked parse is
// bit-identical to the sequential one — the differential guarantee checked on
// every fuzz input, not just the curated corpus.

// sameParse compares a sequential and a parallel parse of the same bytes.
// Values compare as float bits so a NaN payload cannot mask a divergence.
func sameParse(t *testing.T, kind string, parse func(parallelism int) (*COOF, error)) {
	t.Helper()
	seq, seqErr := parse(1)
	par, parErr := parse(6)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("%s: sequential err %v vs parallel err %v", kind, seqErr, parErr)
	}
	if seqErr != nil {
		return
	}
	if seq.NRows != par.NRows || seq.NCols != par.NCols {
		t.Fatalf("%s: dims %dx%d vs %dx%d", kind, seq.NRows, seq.NCols, par.NRows, par.NCols)
	}
	if len(seq.Entries) != len(par.Entries) {
		t.Fatalf("%s: %d entries vs %d", kind, len(seq.Entries), len(par.Entries))
	}
	for i := range seq.Entries {
		a, b := seq.Entries[i], par.Entries[i]
		if a.Row != b.Row || a.Col != b.Col || math.Float32bits(a.Val) != math.Float32bits(b.Val) {
			t.Fatalf("%s: entry %d: %v vs %v", kind, i, a, b)
		}
	}
}

func FuzzReadMTX(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.5\n3 1 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% c\n4 4 2\n2 1\n4 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n"))
	// Malformed headers.
	f.Add([]byte(""))
	f.Add([]byte("%%MatrixMarket matrix array real general\n2 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate complex hermitian\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general"))
	// Overflow-sized and negative-looking counts: must error, never allocate.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 99999999999999999999\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 -5\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n4294967295 4294967295 1000000\n1 1 1\n"))
	// Truncated payloads and out-of-bounds entries.
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n1 2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "mtx", func(p int) (*COOF, error) {
			return ParseMTX(data, LoadOptions{Parallelism: p})
		})
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2 3.5\n# comment\n\n2 0 0.25\n"))
	f.Add([]byte("% other comment style\r\n7 9\r\n"))
	f.Add([]byte("0 1 nope\n"))
	f.Add([]byte("42\n"))
	f.Add([]byte("4294967296 1\n")) // id overflows uint32
	f.Add([]byte("4294967295 0\n")) // id parses but the vertex count would wrap
	f.Add([]byte("-1 2\n"))
	f.Add([]byte("1 2 1e999\n"))
	f.Add([]byte("18446744073709551617 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "edgelist", func(p int) (*COOF, error) {
			return ParseEdgeList(data, LoadOptions{Parallelism: p, MinVertices: 3})
		})
	})
}

// binV1 hand-assembles a payload in the removed GMATBIN1 format (nothing
// writes it any more), with an arbitrary header edge count: the reader must
// turn every such input into ErrBinaryV1, never a panic or an allocation
// sized by the header.
func binV1(n uint32, claimed uint64, records []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("GMATBIN1")
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	binary.LittleEndian.PutUint64(hdr[4:12], claimed)
	buf.Write(hdr)
	buf.Write(records)
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	rec := make([]byte, 12)
	binary.LittleEndian.PutUint32(rec[0:4], 1)
	binary.LittleEndian.PutUint32(rec[4:8], 2)
	binary.LittleEndian.PutUint32(rec[8:12], math.Float32bits(1.5))

	f.Add(binV1(3, 1, rec))
	f.Add(binV1(3, 0, nil))
	// The classic crasher: a header that claims 2^61 edges over a 12-byte
	// body must error out instead of allocating ~2^65 bytes.
	f.Add(binV1(3, 1<<61, rec))
	f.Add(binV1(3, 2, rec)) // truncated: one record, two claimed
	f.Add([]byte("GMATBIN"))
	f.Add([]byte("WRONGMAG...."))

	// GMATBIN2 seeds: a valid two-section file, then mutations.
	var v2 bytes.Buffer
	coo := NewCOOF(3)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 2)
	coo.Add(2, 0, 3)
	if err := WriteBinary2(&v2, coo, 2); err != nil {
		f.Fatal(err)
	}
	valid := v2.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated payload
	f.Add(valid[:28])           // header only, no table
	bad := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(bad[16:24], 1<<60) // absurd edge count
	f.Add(bad)
	bad2 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(bad2[24:28], 1<<20) // absurd section count
	f.Add(bad2)
	bad3 := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(bad3[28:36], 2) // sections don't tile
	f.Add(bad3)

	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "binary", func(p int) (*COOF, error) {
			return ParseBinary(data, LoadOptions{Parallelism: p})
		})
		if bytes.HasPrefix(data, []byte("GMATBIN1")) {
			if _, err := ParseBinary(data, LoadOptions{}); !errors.Is(err, ErrBinaryV1) {
				t.Fatalf("GMATBIN1 input: err = %v, want ErrBinaryV1", err)
			}
		}
	})
}

// parseUpdatesNDJSONPerLine is ParseUpdatesNDJSON as it was before the
// single-pass parser: one encoding/json Decoder per line. It defines what the
// NDJSON form accepts, with which values and which error, and is kept here as
// the oracle.
func parseUpdatesNDJSONPerLine(data []byte) ([]Update[float32], error) {
	var ups []Update[float32]
	lineno := 0
	for len(data) > 0 {
		lineno++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec updateRecord
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("updates line %d: %v", lineno, err)
		}
		if rest := bytes.TrimSpace(line[dec.InputOffset():]); len(rest) > 0 {
			return nil, fmt.Errorf("updates line %d: unexpected %.32q after the update object", lineno, rest)
		}
		w := float32(1)
		if rec.Weight != nil {
			w = *rec.Weight
		}
		ups = append(ups, Update[float32]{Src: rec.Src, Dst: rec.Dst, Val: w, Del: rec.Del})
	}
	return ups, nil
}

// sameAsPerLine holds ParseUpdatesNDJSON to the per-line oracle on data: the
// same accept/reject decision, the same error (so the same 1-based line
// number) and bit-identical updates.
func sameAsPerLine(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ParseUpdatesNDJSON(data)
	want, wantErr := parseUpdatesNDJSONPerLine(data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, the per-line decoder says %v", data, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d updates, the per-line decoder says %d", data, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Src != w.Src || g.Dst != w.Dst || g.Del != w.Del || math.Float32bits(g.Val) != math.Float32bits(w.Val) {
			t.Fatalf("%q: update %d = %+v, the per-line decoder says %+v", data, i, g, w)
		}
	}
}

// updateLineCorpus is NDJSON on both sides of every line the single-pass
// parser draws: what it takes itself, what it must hand to encoding/json, and
// what both must refuse.
var updateLineCorpus = []string{
	// Plain form, as WriteUpdates emits it and as people type it.
	`{"src":1,"dst":2,"weight":1.5}`, `{"src":3,"dst":4,"del":true}`, `{"src":5,"dst":6}`,
	`{ "src" : 7 ,	"dst":8 , "del" : false }`, `{"del":true,"weight":2,"dst":4294967295,"src":0}`,
	`{"src":1,"dst":2,"weight":16}`, `{"src":1,"dst":2,"weight":9999999}`, `{"src":1,"dst":2,"weight":10000000}`,
	`{"src":1,"dst":2,"weight":16777217}`, `{"src":1,"dst":2,"weight":-0}`, `{"src":1,"dst":2,"weight":-0.0,"del":true}`,
	`{"src":1,"dst":2,"weight":1e-45}`, `{"src":1,"dst":2,"weight":1E+2}`, `{"src":1,"dst":2,"weight":3.4028235e38}`,
	`{"src":1,"dst":2,"weight":0.1}`, `{"src":1,"dst":2,"weight":1e-400}`, `{}`, `{ }`,
	// Valid, but only encoding/json knows what it means.
	`{"SRC":1,"Dst":2,"WEIGHT":3,"dEl":true}`, `{"\u0073rc":1,"dst":2}`, "{\"\u017frc\":1,\"d\u017ft\":2}",
	`{"src":1,"src":2,"dst":3}`, `{"src":1,"dst":2,"weight":4,"weight":null}`, `{"src":1,"dst":2,"del":true,"del":null}`,
	`{"src":null,"dst":null,"weight":null,"del":null}`, `null`, "{\"src\":1,\r\"dst\":2}", "\v{\"src\":1,\"dst\":2}\u00a0",
	// Refused by both.
	`{"src":1,"dst":2} junk`, `{"src":3,"dst":4}{"src":5,"dst":6}`, `{"src":1,"dst":2,"extra":3}`, `{"src":1,"dst":2,}`,
	`{"src":4294967296,"dst":0}`, `{"src":99999999999,"dst":0}`, `{"src":-1,"dst":0}`, `{"src":01,"dst":0}`,
	`{"src":1.0,"dst":0}`, `{"src":1e2,"dst":0}`, `{"src":"1","dst":0}`, `{"src":1,"dst":2,"weight":1e39}`,
	`{"src":1,"dst":2,"weight":1.}`, `{"src":1,"dst":2,"weight":.5}`, `{"src":1,"dst":2,"weight":1e}`, `{"src":1,"dst":2,"weight":-}`,
	`{"src":1,"dst":2,"weight":00}`, `{"src":1,"dst":2,"weight":NaN}`, `{"src":1,"dst":2,"del":truex}`, `{"src":1,"dst":2,"del":1}`,
	`{"src":1 "dst":2}`, `{"src"1,"dst":2}`, `{"src":1,"dst":2`, `{"src":`, `{"src"`, `{`, `[1,2]`, `12`, `true`, `nullx`, `{"src":1,"dst":2}}`,
}

func TestParseUpdatesNDJSONMatchesPerLineDecoder(t *testing.T) {
	for _, line := range updateLineCorpus {
		sameAsPerLine(t, []byte(line))
		// The same line amid good ones: values land in order, and an error
		// names line 3.
		sameAsPerLine(t, []byte("{\"src\":1,\"dst\":2}\n\n"+line+"\r\n{\"src\":3,\"dst\":4,\"del\":true}"))
	}
	var stream bytes.Buffer
	if err := WriteUpdates(&stream, []Update[float32]{{Src: 1, Dst: 2, Val: 0.25}, {Src: 3, Dst: 4, Del: true}, {Src: 0, Dst: math.MaxUint32, Val: math.MaxFloat32}}); err != nil {
		t.Fatal(err)
	}
	sameAsPerLine(t, stream.Bytes())
}

// FuzzParseUpdates holds the update-stream parser (both wire forms, sniffed)
// to three promises: arbitrary input never panics; the single-pass NDJSON
// parser agrees with the per-line encoding/json oracle on every input —
// accept or reject, error text, values; and an accepted batch survives
// WriteUpdates → ParseUpdates unchanged. Delete records carry no weight on
// the wire, so a delete's value is not compared in the round trip.
func FuzzParseUpdates(f *testing.F) {
	f.Add([]byte("{\"src\":1,\"dst\":2,\"weight\":1.5}\n\n{\"src\":3,\"dst\":4,\"del\":true}\n{\"src\":5,\"dst\":6}\n"))
	f.Add([]byte("# comment\nadd 1 2 1.5\ndel 3 4\n5 6\n"))
	f.Add([]byte("add 1 2 NaN\n1 2 -inf\n"))
	f.Add([]byte("del 7 7 ignored\nadd 4294967295 0 1e-45\n"))
	f.Add([]byte(" \n\t{"))
	f.Add([]byte(""))
	for _, line := range updateLineCorpus {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsPerLine(t, data)
		ups, err := ParseUpdates(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteUpdates(&buf, ups); err != nil {
			t.Fatalf("WriteUpdates of an accepted batch: %v", err)
		}
		back, err := ParseUpdatesNDJSON(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parsing WriteUpdates output: %v", err)
		}
		if len(back) != len(ups) {
			t.Fatalf("round trip: %d updates, want %d", len(back), len(ups))
		}
		for i, u := range ups {
			b := back[i]
			if b.Src != u.Src || b.Dst != u.Dst || b.Del != u.Del ||
				(!u.Del && math.Float32bits(b.Val) != math.Float32bits(u.Val)) {
				t.Fatalf("round trip[%d] = %+v, want %+v", i, b, u)
			}
		}
	})
}
