package snap

import (
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// Snapshot is an opened GMATSNAP file: the raw mapping plus an Image whose
// arrays are zero-copy views into it. The mapping is read-only — a stray
// write through a view faults loudly instead of corrupting the file — and
// it must outlive every graph still holding the views, so long-lived owners
// (the server) keep the Snapshot for the process lifetime and only
// short-lived ones (CLI, tests) Close it.
type Snapshot struct {
	path    string
	data    []byte
	mapped  bool
	hdr     header
	secs    []section
	img     *Image
	decoded uint64 // bytes the sections actually cover, for Info
}

// Open maps path and validates it just enough to trust the layout: magic,
// version, header CRC, table CRC, and every section's bounds, alignment
// and element size, plus the O(1) shape checks tying the arrays together
// (Image.checkShape). That is O(header + table) work — no payload scan — so opening
// a multi-gigabyte snapshot costs page-table setup, not I/O. Payload CRCs
// are checked by Verify (the CLI's inspect -verify and the tests), not
// here.
func Open(path string) (*Snapshot, error) {
	if err := checkLayout(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	size := fi.Size()
	if size < headerSize {
		return nil, fmt.Errorf("snap: %s is %d bytes, smaller than a GMATSNAP header: torn or corrupt snapshot", path, size)
	}
	data, mapped, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("snap: mapping %s: %w", path, err)
	}
	sn := &Snapshot{path: path, data: data, mapped: mapped}
	if err := sn.decode(); err != nil {
		sn.Close()
		return nil, fmt.Errorf("snap: %s: %w", path, err)
	}
	return sn, nil
}

// decode parses the header and table and assembles the zero-copy Image.
func (sn *Snapshot) decode() error {
	h, tableCRC, err := parseHeader(sn.data)
	if err != nil {
		return err
	}
	tableEnd := headerSize + int(h.nsections)*sectionSize
	if tableEnd > len(sn.data) {
		return fmt.Errorf("section table extends past the file: torn or corrupt snapshot")
	}
	secs, err := parseSections(sn.data[headerSize:tableEnd], int(h.nsections), tableCRC, uint64(len(sn.data)))
	if err != nil {
		return err
	}
	sn.hdr, sn.secs = h, secs

	img := &Image{
		Epoch:      h.epoch,
		Tag:        h.tag,
		NRows:      h.nrows,
		NCols:      h.ncols,
		NEdges:     h.nedges,
		Directions: h.directions,
		Partitions: h.partitions,
	}
	type key struct{ kind, dir, part uint32 }
	byKey := make(map[key][]byte, len(secs))
	for i, s := range secs {
		k := key{s.kind, s.dir, s.part}
		if _, dup := byKey[k]; dup {
			return fmt.Errorf("duplicate section (kind %d, dir %d, part %d)", s.kind, s.dir, s.part)
		}
		byKey[k] = sn.data[s.off : s.off+s.length]
		sn.decoded += s.length
		if want := wantElem(s.kind); want != 0 && s.elem != want {
			return fmt.Errorf("section %d (kind %d) has element size %d, format says %d", i, s.kind, s.elem, want)
		}
	}
	if img.Directions == 0 {
		img.Fwd = viewTriples(byKey[key{secFwd, dirNone, 0}])
	}
	img.OutDeg = viewU32(byKey[key{secOutDeg, dirNone, 0}])
	img.InDeg = viewU32(byKey[key{secInDeg, dirNone, 0}])
	for _, dir := range []uint32{dirOut, dirIn} {
		meta := viewU32(byKey[key{secPartMeta, dir, 0}])
		if len(meta) == 0 {
			continue
		}
		if len(meta)%metaWords != 0 {
			return fmt.Errorf("partition metadata length %d is not a multiple of %d", len(meta), metaWords)
		}
		parts := make([]PartImage, len(meta)/metaWords)
		for i := range parts {
			m := meta[i*metaWords:]
			parts[i] = PartImage{
				RowLo: m[0],
				RowHi: m[1],
				JC:    viewU32(byKey[key{secJC, dir, uint32(i)}]),
				CP:    viewU32(byKey[key{secCP, dir, uint32(i)}]),
				IR:    viewU32(byKey[key{secIR, dir, uint32(i)}]),
				Val:   viewF32(byKey[key{secVal, dir, uint32(i)}]),
			}
		}
		if dir == dirOut {
			img.Out = parts
		} else {
			img.In = parts
		}
	}
	if err := img.checkShape(); err != nil {
		return err
	}
	sn.img = img
	return nil
}

// Image returns the zero-copy image. Its arrays alias the mapping: valid
// until Close, and read-only.
func (sn *Snapshot) Image() *Image { return sn.img }

// Verify is the deep integrity pass Open deliberately skips: every section's
// payload CRC, then the image's full Validate (Open ran only its O(1) shape
// half). It faults in the whole file.
func (sn *Snapshot) Verify() error {
	for i, s := range sn.secs {
		if got := crc32.Checksum(sn.data[s.off:s.off+s.length], crcTable); got != s.crc {
			return fmt.Errorf("snap: %s: section %d (kind %d, dir %d, part %d) payload CRC mismatch (file %#x, computed %#x)",
				sn.path, i, s.kind, s.dir, s.part, got, s.crc)
		}
	}
	return sn.img.Validate()
}

// Close unmaps the file. Every view handed out through Image becomes
// invalid; the caller must guarantee no graph still reads them.
func (sn *Snapshot) Close() error {
	if sn.data == nil {
		return nil
	}
	data := sn.data
	sn.data, sn.img, sn.secs = nil, nil, nil
	if sn.mapped {
		return munmapFile(data)
	}
	return nil
}

// SectionInfo describes one section for tooling.
type SectionInfo struct {
	Kind   string `json:"kind"`
	Dir    string `json:"dir"`
	Part   uint32 `json:"part"`
	Offset uint64 `json:"offset"`
	Length uint64 `json:"length"`
	CRC    uint32 `json:"crc"`
}

// Info summarizes the snapshot header and section table for tooling
// (graphmat snap inspect).
type Info struct {
	Path       string        `json:"path"`
	Version    uint32        `json:"version"`
	Epoch      uint64        `json:"epoch"`
	Tag        uint64        `json:"tag"`
	NRows      uint32        `json:"nrows"`
	NCols      uint32        `json:"ncols"`
	NEdges     uint64        `json:"nedges"`
	Directions uint32        `json:"directions"`
	Partitions uint32        `json:"partitions"`
	FileSize   int64         `json:"file_size"`
	DataBytes  uint64        `json:"data_bytes"`
	Mapped     bool          `json:"mapped"`
	Sections   []SectionInfo `json:"sections"`
}

// Info reports the decoded header and per-section layout, sorted by file
// offset.
func (sn *Snapshot) Info() Info {
	info := Info{
		Path:       sn.path,
		Version:    sn.hdr.version,
		Epoch:      sn.hdr.epoch,
		Tag:        sn.hdr.tag,
		NRows:      sn.hdr.nrows,
		NCols:      sn.hdr.ncols,
		NEdges:     sn.hdr.nedges,
		Directions: sn.hdr.directions,
		Partitions: sn.hdr.partitions,
		FileSize:   int64(len(sn.data)),
		DataBytes:  sn.decoded,
		Mapped:     sn.mapped,
	}
	for _, s := range sn.secs {
		info.Sections = append(info.Sections, SectionInfo{
			Kind:   kindName(s.kind),
			Dir:    dirName(s.dir),
			Part:   s.part,
			Offset: s.off,
			Length: s.length,
			CRC:    s.crc,
		})
	}
	sort.Slice(info.Sections, func(i, j int) bool { return info.Sections[i].Offset < info.Sections[j].Offset })
	return info
}

// wantElem returns the fixed element size of a section kind, 0 if the kind
// is unknown (tolerated for forward compatibility: unknown sections are
// ignored).
func wantElem(kind uint32) uint32 {
	switch kind {
	case secFwd, secBwd:
		return tripleSize
	case secOutDeg, secInDeg, secPartMeta, secJC, secCP, secIR, secVal, secAux:
		return 4
	}
	return 0
}

func kindName(kind uint32) string {
	switch kind {
	case secFwd:
		return "fwd"
	case secBwd:
		return "bwd"
	case secOutDeg:
		return "outdeg"
	case secInDeg:
		return "indeg"
	case secPartMeta:
		return "partmeta"
	case secJC:
		return "jc"
	case secCP:
		return "cp"
	case secIR:
		return "ir"
	case secVal:
		return "val"
	case secAux:
		return "aux"
	}
	return "unknown"
}

func dirName(dir uint32) string {
	switch dir {
	case dirOut:
		return "out"
	case dirIn:
		return "in"
	case dirNone:
		return "-"
	}
	return "unknown"
}
