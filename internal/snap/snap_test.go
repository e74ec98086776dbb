package snap_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// rawImage is a master-copy style image: dims and forward triples only.
func rawImage() *snap.Image {
	return &snap.Image{
		Epoch:  7,
		Tag:    7,
		NRows:  4,
		NCols:  4,
		NEdges: 3,
		Fwd: []sparse.Triple[float32]{
			{Row: 0, Col: 1, Val: 1.5},
			{Row: 1, Col: 2, Val: -2},
			{Row: 3, Col: 0, Val: 0.25},
		},
	}
}

// propImage is a hand-built property-graph image with two out partitions,
// exercising every section kind a property image has except the In
// direction's.
func propImage() *snap.Image {
	return &snap.Image{
		Epoch:      3,
		Tag:        5,
		NRows:      4,
		NCols:      4,
		NEdges:     3,
		Directions: snap.DirsOut,
		Partitions: 2,
		OutDeg:     []uint32{1, 1, 1, 0},
		InDeg:      []uint32{0, 2, 1, 0},
		Out: []snap.PartImage{
			{
				RowLo: 0, RowHi: 2, AuxShift: 1,
				JC:  []uint32{0, 2},
				CP:  []uint32{0, 1, 2},
				IR:  []uint32{1, 1},
				Val: []float32{1, 2},
				Aux: []uint32{0, 1, 2},
			},
			{
				RowLo: 2, RowHi: 4, AuxShift: 0,
				JC:  []uint32{1},
				CP:  []uint32{0, 1},
				IR:  []uint32{2},
				Val: []float32{3},
				Aux: []uint32{0, 1},
			},
		},
	}
}

// sameImage compares two images for exact content equality (views from a
// mapping compare equal to heap slices holding the same values).
func sameImage(t *testing.T, got, want *snap.Image) {
	t.Helper()
	if got.Epoch != want.Epoch || got.Tag != want.Tag {
		t.Errorf("marks = (%d, %d), want (%d, %d)", got.Epoch, got.Tag, want.Epoch, want.Tag)
	}
	if got.NRows != want.NRows || got.NCols != want.NCols || got.NEdges != want.NEdges {
		t.Errorf("dims = %dx%d/%d, want %dx%d/%d",
			got.NRows, got.NCols, got.NEdges, want.NRows, want.NCols, want.NEdges)
	}
	if got.Directions != want.Directions || got.Partitions != want.Partitions {
		t.Errorf("layout = (%d, %d), want (%d, %d)",
			got.Directions, got.Partitions, want.Directions, want.Partitions)
	}
	if !reflect.DeepEqual(got.Fwd, want.Fwd) {
		t.Errorf("Fwd = %v, want %v", got.Fwd, want.Fwd)
	}
	if !reflect.DeepEqual(got.OutDeg, want.OutDeg) || !reflect.DeepEqual(got.InDeg, want.InDeg) {
		t.Errorf("degrees differ: out %v/%v in %v/%v", got.OutDeg, want.OutDeg, got.InDeg, want.InDeg)
	}
	for d, pair := range [][2][]snap.PartImage{{got.Out, want.Out}, {got.In, want.In}} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			t.Fatalf("dir %d: %d partitions, want %d", d, len(g), len(w))
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("dir %d partition %d = %+v, want %+v", d, i, g[i], w[i])
			}
		}
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *snap.Image
	}{
		{"raw", rawImage()},
		{"property", propImage()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.snap")
			if err := snap.Write(path, tc.img); err != nil {
				t.Fatal(err)
			}
			sf, err := snap.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			sameImage(t, sf.Image(), tc.img)
			if err := sf.Verify(); err != nil {
				t.Errorf("verify: %v", err)
			}
			info := sf.Info()
			if info.Version != snap.FormatVersion {
				t.Errorf("version = %d", info.Version)
			}
			if len(info.Sections) == 0 {
				t.Fatal("no sections reported")
			}
			// Every payload must start cache-line aligned — the zero-copy
			// contract the mapped views rely on.
			for _, s := range info.Sections {
				if s.Offset%snap.Align != 0 {
					t.Errorf("section %s/%s/%d at offset %d: not %d-byte aligned",
						s.Kind, s.Dir, s.Part, s.Offset, snap.Align)
				}
			}
		})
	}
}

// legacyPropImage is propImage as builds before the partitions became the
// only copy wrote it: the Gᵀ triples (Row = dst, Col = src) ride along in a
// section of their own.
func legacyPropImage() *snap.Image {
	img := propImage()
	img.Fwd = []sparse.Triple[float32]{
		{Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 1, Val: 3},
		{Row: 1, Col: 2, Val: 2},
	}
	return img
}

// TestOpenIgnoresLegacyTripleSections opens a property image in the old
// layout: the triple section is in the file and in Info, passes its CRC, and
// is not part of the decoded image — which equals the new-layout one.
func TestOpenIgnoresLegacyTripleSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snap.Write(path, legacyPropImage()); err != nil {
		t.Fatal(err)
	}
	sf, err := snap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	hasFwd := false
	for _, s := range sf.Info().Sections {
		hasFwd = hasFwd || s.Kind == "fwd"
	}
	if !hasFwd {
		t.Fatal("the legacy file carries no triple section: the test is not testing the old layout")
	}
	sameImage(t, sf.Image(), propImage())
	if err := sf.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestOpenRejectsTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := snap.Write(path, propImage()); err != nil {
		t.Fatal(err)
	}
	sf, err := snap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	info := sf.Info()
	sf.Close()

	// Cut points that each land inside a structurally required region:
	// mid-header, mid-table, and one byte into the first section's payload.
	cuts := []int64{32, 80, int64(info.Sections[0].Offset) + 1}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		torn := filepath.Join(dir, "torn.snap")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if sf, err := snap.Open(torn); err == nil {
			sf.Close()
			t.Errorf("file truncated to %d bytes opened successfully", cut)
		}
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snap.Write(path, rawImage()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF // inside the header's epoch field, guarded by the header CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = snap.Open(path)
	if err == nil {
		t.Fatal("corrupt header accepted")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("error = %q, want a CRC mismatch", err)
	}
}

func TestVerifyCatchesPayloadCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snap.Write(path, propImage()); err != nil {
		t.Fatal(err)
	}
	sf, err := snap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off := sf.Info().Sections[0].Offset
	sf.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open validates layout only (O(header)), so the flipped payload byte
	// passes it; the deep pass must catch it.
	sf, err = snap.Open(path)
	if err != nil {
		t.Fatalf("layout-valid file rejected by Open: %v", err)
	}
	defer sf.Close()
	if err := sf.Verify(); err == nil {
		t.Fatal("payload corruption not detected by Verify")
	}
}

func TestValidateRejectsInconsistentImages(t *testing.T) {
	bad := rawImage()
	bad.Out = propImage().Out
	if err := bad.Validate(); err == nil {
		t.Error("raw image with partitions validated")
	}
	bad = rawImage()
	bad.NEdges = 99
	if err := bad.Validate(); err == nil {
		t.Error("NEdges mismatch validated")
	}
	bad = propImage()
	bad.NEdges = 2
	if err := bad.Validate(); err == nil {
		t.Error("NEdges disagreeing with the partitions' row ids validated")
	}
	bad = propImage()
	bad.Directions = 1 << 7
	if err := bad.Validate(); err == nil {
		t.Error("unknown direction bits validated")
	}
	bad = propImage()
	bad.Out[0].CP = []uint32{0, 2, 1} // non-monotone
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone CP validated")
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	w, err := snap.CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	batches := []snap.WALBatch{
		{Epoch: 1, Updates: []snap.WALUpdate{{Src: 0, Dst: 1, Val: 2.5}}},
		{Epoch: 2, Updates: []snap.WALUpdate{{Src: 1, Dst: 2, Val: -1}, {Src: 0, Dst: 1, Del: true}}},
	}
	for _, b := range batches {
		if err := w.Append(b.Epoch, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	if w.Batches() != 2 || w.Records() != 3 {
		t.Errorf("counters = (%d, %d), want (2, 3)", w.Batches(), w.Records())
	}
	w.Close()

	got, err := snap.ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Errorf("ReadWAL = %+v, want %+v", got, batches)
	}

	// Reopen for appending: replayed counters carry over and new records
	// land after the existing ones.
	w2, replayed, err := snap.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, batches) {
		t.Errorf("OpenWAL replay = %+v, want %+v", replayed, batches)
	}
	if err := w2.Append(3, []snap.WALUpdate{{Src: 3, Dst: 0, Val: 9}}); err != nil {
		t.Fatal(err)
	}
	if w2.Batches() != 3 || w2.Records() != 4 {
		t.Errorf("counters after reopen+append = (%d, %d), want (3, 4)", w2.Batches(), w2.Records())
	}
	w2.Close()

	got, err = snap.ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Epoch != 3 {
		t.Errorf("after append: %+v", got)
	}

	// A missing file is an empty log, not an error.
	if got, err := snap.ReadWAL(filepath.Join(t.TempDir(), "absent.log")); err != nil || got != nil {
		t.Errorf("missing WAL = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	w, err := snap.CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []snap.WALUpdate{{Src: 0, Dst: 1, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a half-written second record.
	torn := append(append([]byte{}, whole...), whole[:len(whole)-5]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, batches, err := snap.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Epoch != 1 {
		t.Fatalf("replay over torn tail = %+v, want the one whole batch", batches)
	}
	// The tail must be gone from disk, and appends must land cleanly after
	// the valid prefix.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(whole)) {
		t.Errorf("file size after truncation = %v (err %v), want %d", fi.Size(), err, len(whole))
	}
	if err := w2.Append(2, []snap.WALUpdate{{Src: 1, Dst: 0, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got, err := snap.ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Epoch != 2 {
		t.Errorf("after heal+append: %+v", got)
	}
}

func TestManifestFlipAndClamp(t *testing.T) {
	dir := t.TempDir()
	if snap.HasManifest(dir) {
		t.Fatal("empty dir claims a manifest")
	}
	if _, err := snap.ReadManifest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest error = %v, want ErrNotExist", err)
	}

	gen1 := &snap.Manifest{Tag: 1, Files: map[string]string{"master": "master-1.snap"}, WAL: "wal-1.log"}
	if err := snap.WriteManifest(dir, gen1); err != nil {
		t.Fatal(err)
	}
	gen2 := &snap.Manifest{Tag: 2, Updates: 10, Files: map[string]string{"master": "master-2.snap"}, WAL: "wal-2.log", Prev: gen1}
	if err := snap.WriteManifest(dir, gen2); err != nil {
		t.Fatal(err)
	}
	gen3 := &snap.Manifest{Tag: 3, Updates: 20, Files: map[string]string{"master": "master-3.snap"}, WAL: "wal-3.log", Prev: gen2}
	if err := snap.WriteManifest(dir, gen3); err != nil {
		t.Fatal(err)
	}

	got, err := snap.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 3 || got.Files["master"] != "master-3.snap" || got.WAL != "wal-3.log" {
		t.Errorf("current generation = %+v", got)
	}
	if got.Prev == nil || got.Prev.Tag != 2 {
		t.Fatalf("Prev = %+v, want generation 2", got.Prev)
	}
	// History is clamped to one level: generation 1 must not survive the
	// flip to generation 3.
	if got.Prev.Prev != nil {
		t.Errorf("Prev chain not clamped: %+v", got.Prev.Prev)
	}
	// No temp file left behind by the atomic flip.
	if _, err := os.Stat(filepath.Join(dir, snap.CurrentFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp manifest left behind: %v", err)
	}
}
