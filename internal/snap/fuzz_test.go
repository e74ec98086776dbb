package snap_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/snap"
)

// resign recomputes every checksum of a GMATSNAP byte image — each section
// entry whose payload lies inside the file, the table, the header — so a
// mutation is judged by the structural checks behind the CRCs instead of
// dying at the first one. It mirrors format.go's layout on purpose: if the
// layout moves, the seeds below stop opening and the fuzz target says so.
func resign(data []byte) []byte {
	const headerSize, sectionSize = 64, 40
	out := slices.Clone(data)
	if len(out) < headerSize {
		return out
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	n := int(binary.LittleEndian.Uint32(out[12:16]))
	if tableEnd := headerSize + n*sectionSize; n <= 1<<16 && tableEnd <= len(out) {
		table := out[headerSize:tableEnd]
		for e := table; len(e) > 0; e = e[sectionSize:] {
			off, length := binary.LittleEndian.Uint64(e[16:24]), binary.LittleEndian.Uint64(e[24:32])
			if size := uint64(len(out)); off <= size && length <= size-off {
				binary.LittleEndian.PutUint32(e[32:36], crc32.Checksum(out[off:off+length], castagnoli))
			}
		}
		binary.LittleEndian.PutUint32(out[56:60], crc32.Checksum(table, castagnoli))
	}
	binary.LittleEndian.PutUint32(out[60:64], crc32.Checksum(out[:60], castagnoli))
	return out
}

// FuzzOpenSnap throws mutated snapshot files at Open and Verify, as written
// and with their checksums re-signed: neither may panic, and an image both
// accept passes Validate and — when it is a property image — assembles into
// a store through graph.NewStoreFromImage whose counts are the header's.
func FuzzOpenSnap(f *testing.F) {
	dir := f.TempDir()
	fileOf := func(img *snap.Image) []byte {
		path := filepath.Join(dir, "seed.snap")
		if err := snap.Write(path, img); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	prop := fileOf(propImage())
	f.Add(prop, false)
	f.Add(fileOf(rawImage()), false)
	f.Add(fileOf(legacyPropImage()), false)
	f.Add(prop[:len(prop)-70], false) // torn inside the last payload
	f.Add(prop[:100], true)           // torn inside the table, header re-signed to match
	// Forged table: the first section's length grows by one element and its
	// kind becomes the second's, with every CRC made to agree.
	forged := slices.Clone(prop)
	forged[64+24] += 4
	copy(forged[64:68], forged[64+40:64+44])
	f.Add(forged, true)

	f.Fuzz(func(t *testing.T, data []byte, signed bool) {
		if signed {
			data = resign(data)
		}
		path := filepath.Join(t.TempDir(), "f.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := snap.Open(path)
		if err != nil {
			return
		}
		defer sf.Close()
		if sf.Verify() != nil {
			return
		}
		img := sf.Image()
		if err := img.Validate(); err != nil {
			t.Fatalf("Open and Verify accepted an image Validate rejects: %v", err)
		}
		if img.Directions == 0 {
			return
		}
		st, err := graph.NewStoreFromImage(img)
		if err != nil {
			t.Fatalf("an accepted property image does not assemble: %v", err)
		}
		if ss := st.Stats(); ss.Epoch != img.Epoch || uint64(ss.LiveEdges) != img.NEdges || uint64(ss.BaseEdges) != img.NEdges {
			t.Fatalf("store stats %+v disagree with the header (epoch %d, %d edges)", ss, img.Epoch, img.NEdges)
		}
	})
}

// resignWAL recomputes the CRC of every record whose declared length fits in
// data, so a mutation reaches the record decoder instead of dying at the
// checksum. It mirrors wal.go's record layout on purpose.
func resignWAL(data []byte) []byte {
	const headerSize, updateSize = 16, 16
	out := slices.Clone(data)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for off := 0; off+headerSize <= len(out); {
		count := uint64(binary.LittleEndian.Uint32(out[off+4 : off+8]))
		end := uint64(off) + headerSize + count*updateSize + 4
		if end > uint64(len(out)) {
			break
		}
		binary.LittleEndian.PutUint32(out[end-4:end], crc32.Checksum(out[off+4:end-4], castagnoli))
		off = int(end)
	}
	return out
}

// walBytes appends batches to a fresh log at path and returns the file.
func walBytes(t testing.TB, path string, batches []snap.WALBatch) []byte {
	t.Helper()
	w, err := snap.CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := w.Append(b.Epoch, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReadWAL throws torn, bit-flipped and re-signed logs at WAL replay. For
// any bytes: ReadWAL and OpenWAL do not panic; the batches they replay,
// appended to a fresh log, are byte for byte a prefix of the input — the
// valid prefix; OpenWAL truncates the file to exactly that prefix; and a
// batch appended through OpenWAL's handle replays after the old ones.
func FuzzReadWAL(f *testing.F) {
	log := walBytes(f, filepath.Join(f.TempDir(), "seed.log"), []snap.WALBatch{
		{Epoch: 1, Updates: []snap.WALUpdate{{Src: 0, Dst: 1, Val: 2.5}, {Src: 4, Dst: 2, Val: -0.125}}},
		{Epoch: 2, Updates: []snap.WALUpdate{{Src: 0, Dst: 1, Del: true}, {Src: 3, Dst: 3, Val: 7}}},
		{Epoch: 3, Updates: []snap.WALUpdate{{Src: 9, Dst: 5, Val: 1}}},
	})
	const first = 16 + 2*16 + 4 // the first record's length
	f.Add(log, false)
	for _, cut := range []int{first - 4, first, first + 8, first + 16, first + 16 + 16, len(log) - 4, len(log) - 1} {
		f.Add(log[:cut], false) // torn inside a CRC, at a record end, mid-header, after a header, after an update
	}
	for _, bit := range []int{0, 4 * 8, 8 * 8, first*8 + 16*8 + 12*8, first*8 - 1} {
		flipped := slices.Clone(log)
		flipped[bit/8] ^= 1 << (bit % 8) // magic, count, epoch, flags, CRC
		f.Add(flipped, false)
		f.Add(flipped, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, signed bool) {
		if signed {
			data = resignWAL(data)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, err := snap.ReadWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		prefix := walBytes(t, filepath.Join(dir, "re.log"), read)
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("re-appending the %d replayed batches does not reproduce the input's prefix", len(read))
		}

		w, opened, err := snap.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if got := walBytes(t, filepath.Join(dir, "reopen.log"), opened); !bytes.Equal(got, prefix) {
			t.Fatalf("OpenWAL replayed %d batches, ReadWAL %d", len(opened), len(read))
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, prefix) {
			t.Fatalf("OpenWAL left %d bytes, want the %d-byte valid prefix (%v)", len(kept), len(prefix), err)
		}
		next := snap.WALBatch{Epoch: 1 << 40, Updates: []snap.WALUpdate{{Src: 7, Dst: 8, Val: 3, Del: true}}}
		if err := w.Append(next.Epoch, next.Updates); err != nil {
			t.Fatal(err)
		}
		after, err := snap.ReadWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(read)+1 || !bytes.Equal(walBytes(t, filepath.Join(dir, "after.log"), after), append(prefix, walBytes(t, filepath.Join(dir, "next.log"), []snap.WALBatch{next})...)) {
			t.Fatalf("after an append OpenWAL's log replays %d batches, want the %d old ones then the new one", len(after), len(read))
		}
	})
}
