package server

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphmat/algorithms"
)

// TestCheckpointCollectsOlderGenerations: a process that checkpoints three
// times keeps only the files of the current generation and its fallback, the
// two the stored manifest names. The manifest chain in memory once grew by a
// generation per checkpoint, so garbage collection, which walks it, deleted
// nothing until a restart.
func TestCheckpointCollectsOlderGenerations(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunContext(t.Context(), "sssp", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for round := uint32(1); round <= 3; round++ {
		var big []algorithms.EdgeUpdate
		for v := uint32(0); v < 64; v++ {
			big = append(big, algorithms.EdgeUpdate{Src: v, Dst: (v*5 + round) % 64, Val: float32(round)})
		}
		if _, _, err := entry.ApplyEdges(big); err != nil {
			t.Fatal(err)
		}
	}
	if ps := entry.PersistStats(); ps.Checkpoints != 4 || ps.CheckpointErrors != 0 {
		t.Fatalf("persist stats = %+v, want the registration's checkpoint and one per compacting batch", ps)
	}
	files, err := os.ReadDir(filepath.Join(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	want := []string{"CURRENT", "master-2.snap", "master-3.snap", "store-directed-2.snap", "store-directed-3.snap", "wal-2.log", "wal-3.log"}
	if !slices.Equal(names, want) {
		t.Errorf("directory after three checkpoints = %v, want %v", names, want)
	}
}
