package graph

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmat/internal/sparse"
)

func TestReadMTXGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 2 1.5
2 3 2.0
3 1 0.5
1 3 1.0
`
	coo, err := ParseMTX([]byte(in), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 3 || coo.NCols != 3 || len(coo.Entries) != 4 {
		t.Fatalf("dims/nnz wrong: %dx%d %d", coo.NRows, coo.NCols, len(coo.Entries))
	}
	if coo.Entries[0] != (sparse.Triple[float32]{Row: 0, Col: 1, Val: 1.5}) {
		t.Errorf("entry 0 = %v", coo.Entries[0])
	}
}

func TestReadMTXSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	coo, err := ParseMTX([]byte(in), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) mirrors to (1,2); diagonal (3,3) does not mirror.
	if len(coo.Entries) != 3 {
		t.Fatalf("nnz = %d, want 3", len(coo.Entries))
	}
	for _, e := range coo.Entries {
		if e.Val != 1 {
			t.Errorf("pattern value = %v", e.Val)
		}
	}
}

func TestReadMTXErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	}
	for i, in := range cases {
		if _, err := ParseMTX([]byte(in), LoadOptions{Parallelism: 1}); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestMTXRoundTrip(t *testing.T) {
	coo := sparse.NewCOO[float32](5, 5)
	coo.Add(0, 1, 1.25)
	coo.Add(4, 0, 3)
	coo.Add(2, 2, 0.5)
	var buf bytes.Buffer
	if err := WriteMTX(&buf, coo); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMTX(buf.Bytes(), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 3 || back.NRows != 5 {
		t.Fatalf("round trip: %d entries %d rows", len(back.Entries), back.NRows)
	}
	for i := range coo.Entries {
		if back.Entries[i] != coo.Entries[i] {
			t.Errorf("entry %d: %v != %v", i, back.Entries[i], coo.Entries[i])
		}
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2 3.5
% another comment

2 0 0.25
`
	coo, err := ParseEdgeList([]byte(in), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if coo.NRows != 3 || len(coo.Entries) != 3 {
		t.Fatalf("n=%d nnz=%d", coo.NRows, len(coo.Entries))
	}
	if coo.Entries[1].Val != 3.5 {
		t.Errorf("weight = %v", coo.Entries[1].Val)
	}
	if coo.Entries[0].Val != 1 {
		t.Errorf("default weight = %v", coo.Entries[0].Val)
	}
	// minVertices grows the matrix.
	coo2, err := ParseEdgeList([]byte("0 1\n"), LoadOptions{Parallelism: 1, MinVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if coo2.NRows != 10 {
		t.Errorf("minVertices ignored: n=%d", coo2.NRows)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	coo := sparse.NewCOO[float32](100, 100)
	for i := uint32(0); i < 99; i++ {
		coo.Add(i, i+1, float32(i)*0.5)
	}
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, coo, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBinary(buf.Bytes(), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows != 100 || len(back.Entries) != 99 {
		t.Fatalf("n=%d nnz=%d", back.NRows, len(back.Entries))
	}
	for i := range coo.Entries {
		if back.Entries[i] != coo.Entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ParseBinary([]byte("short"), LoadOptions{Parallelism: 1}); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := ParseBinary([]byte("WRONGMAG...."), LoadOptions{Parallelism: 1}); err == nil {
		t.Error("bad magic accepted")
	}
	// The removed GMATBIN1 format is rejected by name, whatever follows the
	// magic, so the user learns to regenerate the file instead of reading
	// "bad magic".
	if _, err := ParseBinary([]byte("GMATBIN1\x02\x00\x00\x00"), LoadOptions{Parallelism: 1}); !errors.Is(err, ErrBinaryV1) {
		t.Errorf("GMATBIN1 input: err = %v, want ErrBinaryV1", err)
	} else if !strings.Contains(err.Error(), "graphgen") {
		t.Errorf("GMATBIN1 rejection = %q, want a pointer at graphgen", err)
	}
	coo := sparse.NewCOO[float32](10, 10)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	// Truncation diagnostics name both sides of the mismatch: the claimed
	// edge count and how many records the input actually holds.
	var buf2 bytes.Buffer
	if err := WriteBinary2(&buf2, coo, 1); err != nil {
		t.Fatal(err)
	}
	_, err := ParseBinary(buf2.Bytes()[:buf2.Len()-6], LoadOptions{Parallelism: 1})
	if err == nil {
		t.Error("truncated body accepted")
	} else if !strings.Contains(err.Error(), "header claims 2 edges, input holds 1") {
		t.Errorf("truncation message = %q", err)
	}

	// Both dimensions are in the header, so rectangular matrices round-trip.
	rect := sparse.NewCOO[float32](3, 2)
	rect.Add(0, 1, 1)
	var rectBuf bytes.Buffer
	if err := WriteBinary2(&rectBuf, rect, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBinary(rectBuf.Bytes(), LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows != 3 || back.NCols != 2 {
		t.Errorf("rectangular round-trip = %dx%d, want 3x2", back.NRows, back.NCols)
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()

	coo := sparse.NewCOO[float32](4, 4)
	coo.Add(0, 1, 2)
	coo.Add(1, 2, 3)

	mtxPath := filepath.Join(dir, "g.mtx")
	f, err := os.Create(mtxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMTX(f, coo); err != nil {
		t.Fatal(err)
	}
	f.Close()

	binPath := filepath.Join(dir, "g.bin")
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary2(f, coo, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	txtPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txtPath, []byte("0 1 2\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{mtxPath, binPath, txtPath} {
		got, err := LoadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(got.Entries) != 2 {
			t.Errorf("%s: nnz = %d", p, len(got.Entries))
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("missing file accepted")
	}
}
