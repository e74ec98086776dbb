package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// caseGraphs are the shapes every format must carry losslessly: nothing,
// self-loops, duplicate edges (readers must not dedup), and isolated
// vertices.
func caseGraphs() map[string]*COOF {
	empty := NewCOOF(0)

	selfLoops := NewCOOF(4)
	selfLoops.Add(0, 0, 1)
	selfLoops.Add(1, 2, 2.5)
	selfLoops.Add(3, 3, -1)

	dups := NewCOOF(3)
	dups.Add(0, 1, 1)
	dups.Add(0, 1, 2)
	dups.Add(0, 1, 2)
	dups.Add(2, 2, 0.125)

	isolated := NewCOOF(10) // vertices 3..9 have no edges
	isolated.Add(0, 1, 1)
	isolated.Add(2, 0, 4)

	return map[string]*COOF{
		"empty":     empty,
		"selfloops": selfLoops,
		"dups":      dups,
		"isolated":  isolated,
	}
}

func sameCOO(t *testing.T, what string, want, got *COOF, wantDims bool) {
	t.Helper()
	if wantDims && (want.NRows != got.NRows || want.NCols != got.NCols) {
		t.Fatalf("%s: dims %dx%d, want %dx%d", what, got.NRows, got.NCols, want.NRows, want.NCols)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Fatalf("%s: %d entries, want %d", what, len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if want.Entries[i] != got.Entries[i] {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got.Entries[i], want.Entries[i])
		}
	}
}

// TestRoundTripAllFormats writes each case graph in each format and reads it
// back, asserting exact entry preservation.
func TestRoundTripAllFormats(t *testing.T) {
	type format struct {
		write    func(w io.Writer, c *COOF) error
		read     func(data []byte, minVertices uint32) (*COOF, error)
		keepDims bool // whether the format can express the vertex count
	}
	formats := map[string]format{
		"mtx": {
			write:    WriteMTX,
			read:     func(d []byte, _ uint32) (*COOF, error) { return ParseMTX(d, LoadOptions{Parallelism: 3}) },
			keepDims: true,
		},
		"edgelist": {
			write: writeEdgeList,
			read: func(d []byte, minV uint32) (*COOF, error) {
				return ParseEdgeList(d, LoadOptions{Parallelism: 3, MinVertices: minV})
			},
			keepDims: true, // recovered via MinVertices
		},
		"binv2": {
			write:    func(w io.Writer, c *COOF) error { return WriteBinary2(w, c, 3) },
			read:     func(d []byte, _ uint32) (*COOF, error) { return ParseBinary(d, LoadOptions{Parallelism: 3}) },
			keepDims: true,
		},
	}
	for gname, g := range caseGraphs() {
		for fname, f := range formats {
			var buf bytes.Buffer
			if err := f.write(&buf, g); err != nil {
				t.Fatalf("%s/%s: write: %v", gname, fname, err)
			}
			back, err := f.read(buf.Bytes(), g.NRows)
			if err != nil {
				t.Fatalf("%s/%s: read: %v", gname, fname, err)
			}
			sameCOO(t, gname+"/"+fname, g, back, f.keepDims)
		}
	}
}

// TestRoundTripChain converts one graph through every format in sequence —
// MTX → edge list → binary v1 → binary v2 — and compares the final result to
// the original.
func TestRoundTripChain(t *testing.T) {
	g := NewCOOF(6)
	g.Add(0, 1, 1.5)
	g.Add(1, 4, 2)
	g.Add(4, 4, 0.25) // self-loop
	g.Add(2, 0, 3)
	g.Add(2, 0, 3) // duplicate
	g.Add(5, 5, 1) // pins the vertex count for the edge-list hop

	var mtx bytes.Buffer
	if err := WriteMTX(&mtx, g); err != nil {
		t.Fatal(err)
	}
	fromMTX, err := ParseMTX(mtx.Bytes(), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := writeEdgeList(&el, fromMTX); err != nil {
		t.Fatal(err)
	}
	fromEL, err := ParseEdgeList(el.Bytes(), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteBinary2(&b2, fromEL, 2); err != nil {
		t.Fatal(err)
	}
	final, err := ParseBinary(b2.Bytes(), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameCOO(t, "chain", g, final, true)
}

// TestParseErrorLineNumbers is the table-driven error-path check: malformed
// text inputs must fail with the offending 1-based line number in the error.
func TestParseErrorLineNumbers(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
		mtx            bool
	}{
		{"el bad src", "0 1\nbad 2\n", "line 2", false},
		{"el missing dst", "0 1\n1 2\n3\n", "line 3", false},
		{"el bad weight", "0 1 x\n", "line 1", false},
		{"el id overflow", "0 1\n# note\n4294967296 0\n", "line 3", false},
		{"el comments counted", "# c\n\n0 1\n2\n", "line 4", false},
		{"mtx bad row index", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1\nx 2 1\n", "line 4", true},
		{"mtx out of bounds", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n5 1 1\n", "line 4", true},
		{"mtx missing value", "%%MatrixMarket matrix coordinate real general\n% pad\n2 2 1\n1 1\n", "line 4", true},
		{"mtx bad size line", "%%MatrixMarket matrix coordinate real general\n2 2\n", "line 2", true},
		{"mtx bad nnz", "%%MatrixMarket matrix coordinate real general\n2 2 -1\n", "line 2", true},
	} {
		var err error
		if tc.mtx {
			_, err = ParseMTX([]byte(tc.in), LoadOptions{Parallelism: 2})
		} else {
			_, err = ParseEdgeList([]byte(tc.in), LoadOptions{Parallelism: 2})
		}
		if err == nil {
			t.Errorf("%s: malformed input accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestParseEdgeListMaxVertexID: the largest parseable id (2^32−1) needs 2^32
// vertices, which the uint32 dimensions cannot hold — it must error rather
// than wrap the vertex count to zero.
func TestParseEdgeListMaxVertexID(t *testing.T) {
	if _, err := ParseEdgeList([]byte("4294967295 0\n"), LoadOptions{}); err == nil {
		t.Fatal("vertex id 2^32-1 accepted; vertex count would wrap to 0")
	}
	// One below the limit is fine.
	coo, err := ParseEdgeList([]byte("4294967294 0\n"), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 4294967295 {
		t.Fatalf("NRows = %d, want 4294967295", coo.NRows)
	}
}

// TestParseMTXStrictEntryCount: both too few and too many data lines must be
// rejected — the parallel reader cannot silently ignore a tail the way a
// streaming reader could.
func TestParseMTXStrictEntryCount(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"too few", "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n"},
		{"too many", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1\n2 2 1\n"},
	} {
		if _, err := ParseMTX([]byte(tc.in), LoadOptions{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWriteBinary2SectionClamp: an absurd section request must be clamped so
// the writer never emits a file its own reader refuses.
func TestWriteBinary2SectionClamp(t *testing.T) {
	g := NewCOOF(200)
	for i := uint32(0); i < 199; i++ {
		g.Add(i, i+1, 1)
	}
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, g, 1<<30); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBinary(buf.Bytes(), LoadOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("reader rejected writer output: %v", err)
	}
	sameCOO(t, "clamped", g, back, true)
}

// TestParseBinaryHeaderHardening: forged headers must error before any
// oversized allocation happens.
func TestParseBinaryHeaderHardening(t *testing.T) {
	g := NewCOOF(3)
	g.Add(0, 1, 1)
	g.Add(1, 2, 2)
	var v2 bytes.Buffer
	if err := WriteBinary2(&v2, g, 2); err != nil {
		t.Fatal(err)
	}

	// Forge the edge count, the section count, and the section table.
	base := v2.Bytes()
	cases := map[string]func([]byte){
		"edge count": func(b []byte) { b[16], b[23] = 0xff, 0x20 },
		"section count": func(b []byte) {
			b[24], b[25], b[26], b[27] = 0xff, 0xff, 0xff, 0x0f
		},
		"section tiling": func(b []byte) { b[28] = 1 },
	}
	for name, mutate := range cases {
		forged := bytes.Clone(base)
		mutate(forged)
		if _, err := ParseBinary(forged, LoadOptions{}); err == nil {
			t.Errorf("forged %s accepted", name)
		}
	}

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(base); cut++ {
		if _, err := ParseBinary(base[:cut], LoadOptions{Parallelism: 2}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// writeEdgeList writes "src dst weight" lines with 0-based ids. Note the
// format cannot express trailing isolated vertices: ParseEdgeList infers the
// vertex count from the largest id present (or its MinVertices option).
func writeEdgeList(w io.Writer, coo *COOF) error {
	bw := bufio.NewWriter(w)
	for _, t := range coo.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", t.Row, t.Col, t.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}
