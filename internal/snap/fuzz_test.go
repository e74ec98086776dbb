package snap_test

import (
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
		st, err := graph.NewStoreFromImage[uint32](img)
		if err != nil {
			t.Fatalf("an accepted property image does not assemble: %v", err)
		}
		if ss := st.Stats(); ss.Epoch != img.Epoch || uint64(ss.LiveEdges) != img.NEdges || uint64(ss.BaseEdges) != img.NEdges {
			t.Fatalf("store stats %+v disagree with the header (epoch %d, %d edges)", ss, img.Epoch, img.NEdges)
		}
	})
}
