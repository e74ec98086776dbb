package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// TestRegistryAddRejectsRecordsOutsideDimensions: registering a GMATBIN2 file
// whose records point outside its header's dimensions fails with the parse
// error and registers nothing — not a graph every instance build would fail
// on, and not a crash in the master's sort.
func TestRegistryAddRejectsRecordsOutsideDimensions(t *testing.T) {
	coo := sparse.NewCOO[float32](4, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 9, 1) // col 9 outside a 4-vertex graph
	var buf bytes.Buffer
	if err := graph.WriteBinary2(&buf, coo, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oob.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dataDir := range []string{"", t.TempDir()} {
		reg := NewRegistry(0, 1, dataDir)
		_, err := reg.Add("oob", Source{Path: path})
		if err == nil || !strings.Contains(err.Error(), "record 2 (2,9) outside 4x4") {
			t.Errorf("data dir %q: Add err = %v, want the out-of-range record named", dataDir, err)
		}
		if _, _, err := reg.Acquire("oob"); !errors.Is(err, ErrGraphNotFound) {
			t.Errorf("data dir %q: after a failed Add, Acquire err = %v, want ErrGraphNotFound", dataDir, err)
		}
		if names := reg.Names(); len(names) != 0 {
			t.Errorf("data dir %q: registered %v after a failed Add", dataDir, names)
		}
	}
}
