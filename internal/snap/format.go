// Package snap defines GMATSNAP, the on-disk snapshot container for
// graphmat's versioned graphs: a fixed header, a CRC-guarded section table,
// and 64-byte-aligned raw array sections laid out so that internal/sparse
// partition arrays can be served as zero-copy views straight out of an
// mmap'd file. A property graph's file holds its per-partition DCSC arrays
// (column ids, column pointers, row ids, values) and its degree arrays — the
// partitions are the edge set, stored once; edge triples are the payload of
// a raw adjacency master copy only. Lookup indexes over those arrays are
// derived in memory on first use, never stored. The package also holds
// the two companions a persistent store needs: a per-graph write-ahead log
// of accepted update batches (wal.go) and the atomically flipped
// epoch-pointer manifest that makes snapshot rotation crash-safe
// (manifest.go).
//
// Byte order is the host's (writer and reader reinterpret the same raw
// array bytes through identical views), so snapshot files are a same-
// architecture persistence format, not a wire interchange format — GMATBIN2
// remains the portable one. Every multi-byte header and table field is
// little-endian regardless, so validation fails loudly rather than
// misparsing on a foreign file.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// Magic opens every GMATSNAP file.
	Magic = "GMATSNAP"
	// FormatVersion is the current layout version.
	FormatVersion = 1
	// Align is the byte alignment of the section table and of every
	// section payload: one cache line, so mapped arrays start cache-line
	// (and therefore element) aligned.
	Align = 64

	headerSize  = 64
	sectionSize = 40
	// maxSections bounds the table so a corrupt count cannot make Open
	// allocate unboundedly before the CRC check.
	maxSections = 1 << 20
)

// Section kinds. A section is one raw array; (kind, dir, part) identifies
// it uniquely within a file. Property images written before the partitions
// became the only copy also carry secFwd (and secBwd with the In direction),
// and files written before the column index became derived state carry a
// secAux per partition: the table is keyed, those keys are not looked up,
// and the file opens as if they were absent — which is why dropping them
// needed no format version.
const (
	secFwd      uint32 = iota + 1 // a raw master image's triples ([]Triple[float32])
	secBwd                        // reserved: backward triples of old property images, never read
	secOutDeg                     // out-degree array ([]uint32)
	secInDeg                      // in-degree array ([]uint32)
	secPartMeta                   // per-direction partition metadata ([]uint32, 4 words/partition)
	secJC                         // DCSC column ids
	secCP                         // DCSC column pointers
	secIR                         // DCSC row ids
	secVal                        // DCSC edge values ([]float32)
	secAux                        // reserved: the AUX bucket index of old files, never read
)

// Direction codes used in section table entries.
const (
	dirOut  uint32 = 0
	dirIn   uint32 = 1
	dirNone uint32 = 0xFFFFFFFF
)

// Direction bits of Image.Directions and the header's directions word.
// They mirror graph Options.Directions: Out = 1, In = 2. A zero word marks
// a raw adjacency image (master copy: triples only, no partitions).
const (
	DirsOut uint32 = 1 << 0
	DirsIn  uint32 = 1 << 1
)

// metaWords is the per-partition word count of a secPartMeta section:
// rowLo, rowHi, then two reserved words written as 0. The first reserved
// word held the AUX bucket shift in old files; the reader ignores both.
const metaWords = 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded fixed-size file header.
type header struct {
	version    uint32
	nsections  uint32
	epoch      uint64
	tag        uint64
	nrows      uint32
	ncols      uint32
	nedges     uint64
	directions uint32
	partitions uint32
}

// section is one decoded section table entry.
type section struct {
	kind   uint32
	dir    uint32
	part   uint32
	elem   uint32 // element size in bytes (4 or 12): layout redundancy for validation
	off    uint64 // absolute file offset, Align-aligned
	length uint64 // payload length in bytes
	crc    uint32 // CRC-32C of the payload
}

// encodeHeader serializes h; the table CRC must already be known.
func encodeHeader(h header, tableCRC uint32) []byte {
	b := make([]byte, headerSize)
	copy(b[0:8], Magic)
	binary.LittleEndian.PutUint32(b[8:12], h.version)
	binary.LittleEndian.PutUint32(b[12:16], h.nsections)
	binary.LittleEndian.PutUint64(b[16:24], h.epoch)
	binary.LittleEndian.PutUint64(b[24:32], h.tag)
	binary.LittleEndian.PutUint32(b[32:36], h.nrows)
	binary.LittleEndian.PutUint32(b[36:40], h.ncols)
	binary.LittleEndian.PutUint64(b[40:48], h.nedges)
	binary.LittleEndian.PutUint32(b[48:52], h.directions)
	binary.LittleEndian.PutUint32(b[52:56], h.partitions)
	binary.LittleEndian.PutUint32(b[56:60], tableCRC)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], crcTable))
	return b
}

// parseHeader validates the magic, version and header CRC and decodes the
// fixed fields. It returns the table CRC the header vouches for.
func parseHeader(b []byte) (header, uint32, error) {
	var h header
	if len(b) < headerSize {
		return h, 0, fmt.Errorf("snap: file too short for a GMATSNAP header (%d bytes)", len(b))
	}
	if string(b[0:8]) != Magic {
		return h, 0, fmt.Errorf("snap: bad magic %q (want %q)", b[0:8], Magic)
	}
	if got, want := binary.LittleEndian.Uint32(b[60:64]), crc32.Checksum(b[0:60], crcTable); got != want {
		return h, 0, fmt.Errorf("snap: header CRC mismatch (file %#x, computed %#x): torn or corrupt snapshot", got, want)
	}
	h.version = binary.LittleEndian.Uint32(b[8:12])
	if h.version != FormatVersion {
		return h, 0, fmt.Errorf("snap: unsupported format version %d (this build reads %d)", h.version, FormatVersion)
	}
	h.nsections = binary.LittleEndian.Uint32(b[12:16])
	if h.nsections > maxSections {
		return h, 0, fmt.Errorf("snap: section count %d exceeds the format limit %d", h.nsections, maxSections)
	}
	h.epoch = binary.LittleEndian.Uint64(b[16:24])
	h.tag = binary.LittleEndian.Uint64(b[24:32])
	h.nrows = binary.LittleEndian.Uint32(b[32:36])
	h.ncols = binary.LittleEndian.Uint32(b[36:40])
	h.nedges = binary.LittleEndian.Uint64(b[40:48])
	h.directions = binary.LittleEndian.Uint32(b[48:52])
	h.partitions = binary.LittleEndian.Uint32(b[52:56])
	return h, binary.LittleEndian.Uint32(b[56:60]), nil
}

// encodeSection serializes one table entry.
func encodeSection(s section) []byte {
	b := make([]byte, sectionSize)
	binary.LittleEndian.PutUint32(b[0:4], s.kind)
	binary.LittleEndian.PutUint32(b[4:8], s.dir)
	binary.LittleEndian.PutUint32(b[8:12], s.part)
	binary.LittleEndian.PutUint32(b[12:16], s.elem)
	binary.LittleEndian.PutUint64(b[16:24], s.off)
	binary.LittleEndian.PutUint64(b[24:32], s.length)
	binary.LittleEndian.PutUint32(b[32:36], s.crc)
	return b
}

// parseSections decodes and validates the table region against the header's
// CRC and the file size: every offset in bounds, aligned, and an exact
// multiple of the entry's element size.
func parseSections(table []byte, n int, tableCRC uint32, fileSize uint64) ([]section, error) {
	if crc32.Checksum(table, crcTable) != tableCRC {
		return nil, fmt.Errorf("snap: section table CRC mismatch: torn or corrupt snapshot")
	}
	secs := make([]section, n)
	for i := range secs {
		b := table[i*sectionSize:]
		s := section{
			kind:   binary.LittleEndian.Uint32(b[0:4]),
			dir:    binary.LittleEndian.Uint32(b[4:8]),
			part:   binary.LittleEndian.Uint32(b[8:12]),
			elem:   binary.LittleEndian.Uint32(b[12:16]),
			off:    binary.LittleEndian.Uint64(b[16:24]),
			length: binary.LittleEndian.Uint64(b[24:32]),
			crc:    binary.LittleEndian.Uint32(b[32:36]),
		}
		if s.elem == 0 {
			return nil, fmt.Errorf("snap: section %d has zero element size", i)
		}
		if s.off%Align != 0 {
			return nil, fmt.Errorf("snap: section %d offset %d is not %d-byte aligned", i, s.off, Align)
		}
		if s.length%uint64(s.elem) != 0 {
			return nil, fmt.Errorf("snap: section %d length %d is not a multiple of its element size %d", i, s.length, s.elem)
		}
		if s.off > fileSize || s.length > fileSize-s.off {
			return nil, fmt.Errorf("snap: section %d [%d, %d) extends past the %d-byte file: torn or corrupt snapshot",
				i, s.off, s.off+s.length, fileSize)
		}
		secs[i] = s
	}
	return secs, nil
}

// alignUp rounds n up to the next multiple of Align.
func alignUp(n uint64) uint64 { return (n + Align - 1) &^ uint64(Align-1) }
