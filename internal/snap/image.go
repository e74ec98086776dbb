package snap

import (
	"fmt"
	"unsafe"

	"graphmat/internal/sparse"
)

// PartImage is the raw-array dump of one DCSC row partition: exactly the
// slices internal/sparse.DCSC holds, plus the row range and AUX shift that
// reconstruct it without any rebuild. When the image comes from an mmap'd
// snapshot every slice is a zero-copy view into the mapping.
type PartImage struct {
	RowLo, RowHi uint32
	AuxShift     uint32
	JC, CP, IR   []uint32
	Val          []float32
	Aux          []uint32
}

// Image is the serializable form of one graph snapshot. A property graph's
// image (Directions != 0) is its partition arrays (Out, In), its degree
// arrays and the header fields: the partitions are the edge set, so there is
// no triple list beside them. Triples are the payload of a raw adjacency
// master copy only (Directions == 0): the dims and Fwd (Row = src,
// Col = dst, row-major sorted), no partitions, no degrees.
//
// Epoch is the store's snapshot epoch at write time; Tag is a
// writer-assigned consistency mark (the serving layer stamps the graph
// entry's master epoch, so boot knows which WAL batches the image already
// contains).
type Image struct {
	Epoch        uint64
	Tag          uint64
	NRows, NCols uint32
	NEdges       uint64
	Directions   uint32 // DirsOut | DirsIn; 0 = raw adjacency image
	Partitions   uint32 // the graph's Options.Partitions (0 for raw images)

	// Fwd is a raw master image's edge list. Property images leave it nil;
	// files written before the partitions became the only copy carry triple
	// sections for them too, which Open does not look up.
	Fwd []sparse.Triple[float32]

	OutDeg, InDeg []uint32

	Out, In []PartImage
}

// tripleSize is the serialized (and in-memory) stride of one edge triple.
// The format relies on Triple[float32] having no padding; checkLayout
// guards the assumption.
const tripleSize = 12

// checkLayout verifies the zero-copy contract: a Triple[float32] occupies
// exactly tripleSize contiguous bytes.
func checkLayout() error {
	if s := unsafe.Sizeof(sparse.Triple[float32]{}); s != tripleSize {
		return fmt.Errorf("snap: Triple[float32] is %d bytes, format requires %d", s, tripleSize)
	}
	return nil
}

// Validate checks the image's structural invariants: checkShape's length
// and direction consistency, plus per partition the monotonicity of CP. It
// reads every CP array once — O(columns), no allocation — so the writer can
// afford it unconditionally.
func (img *Image) Validate() error {
	if err := checkLayout(); err != nil {
		return err
	}
	if err := img.checkShape(); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	for d, parts := range [][]PartImage{img.Out, img.In} {
		for i := range parts {
			cp := parts[i].CP
			for c := 1; c < len(cp); c++ {
				if cp[c] < cp[c-1] {
					return fmt.Errorf("snap: %s partition %d: CP not monotone at column %d (%d < %d)", dirName(uint32(d)), i, c, cp[c], cp[c-1])
				}
			}
		}
	}
	return nil
}

// checkShape is the part of validation that reads lengths only — O(1) per
// array — so Open runs it on every mapped file without touching a payload
// page beyond each partition's first and last column pointer: NEdges
// against the edges actually present (a raw image's triples, each built
// direction's partition row ids), direction bits against the populated
// arrays, degree arrays against the vertex count, and per partition the
// DCSC shape contract (CP brackets JC, the last column pointer covers IR
// and Val, AUX ends at the column count).
func (img *Image) checkShape() error {
	if img.Directions == 0 {
		if len(img.Out) != 0 || len(img.In) != 0 {
			return fmt.Errorf("raw adjacency image (Directions 0) must not carry partitions")
		}
		if img.NEdges != uint64(len(img.Fwd)) {
			return fmt.Errorf("NEdges %d does not match %d triples: torn or corrupt snapshot", img.NEdges, len(img.Fwd))
		}
		return nil
	}
	if img.Directions&^(DirsOut|DirsIn) != 0 {
		return fmt.Errorf("unknown direction bits %#x", img.Directions)
	}
	if len(img.OutDeg) != int(img.NRows) || len(img.InDeg) != int(img.NRows) {
		return fmt.Errorf("degree arrays (%d out, %d in) do not match %d vertices",
			len(img.OutDeg), len(img.InDeg), img.NRows)
	}
	for d, parts := range [][]PartImage{img.Out, img.In} {
		name := dirName(uint32(d))
		if declared := img.Directions&(1<<d) != 0; declared != (len(parts) != 0) {
			return fmt.Errorf("direction %s declared %t but %d partitions present", name, declared, len(parts))
		}
		if len(parts) == 0 {
			continue
		}
		edges := uint64(0)
		for i := range parts {
			if err := checkPartShape(&parts[i], img.NRows); err != nil {
				return fmt.Errorf("%s partition %d: %w", name, i, err)
			}
			edges += uint64(len(parts[i].IR))
		}
		if edges != img.NEdges {
			return fmt.Errorf("NEdges %d does not match the %d edges the %s partitions hold: torn or corrupt snapshot", img.NEdges, edges, name)
		}
	}
	return nil
}

// checkPartShape enforces the length consistency between one partition's
// arrays.
func checkPartShape(p *PartImage, nrows uint32) error {
	if p.RowLo > p.RowHi || p.RowHi > nrows {
		return fmt.Errorf("row range [%d, %d) outside [0, %d)", p.RowLo, p.RowHi, nrows)
	}
	if len(p.CP) != len(p.JC)+1 {
		return fmt.Errorf("CP length %d must be JC length %d + 1", len(p.CP), len(p.JC))
	}
	if p.CP[0] != 0 {
		return fmt.Errorf("CP must start at 0, got %d", p.CP[0])
	}
	nnz := p.CP[len(p.CP)-1]
	if uint32(len(p.IR)) != nnz || uint32(len(p.Val)) != nnz {
		return fmt.Errorf("IR/Val lengths (%d, %d) must equal CP's final pointer %d", len(p.IR), len(p.Val), nnz)
	}
	if p.Aux != nil && (len(p.Aux) < 2 || p.Aux[len(p.Aux)-1] != uint32(len(p.JC))) {
		return fmt.Errorf("AUX index shape is inconsistent with %d columns", len(p.JC))
	}
	return nil
}

// secData pairs a section's identity with its payload bytes.
type secData struct {
	kind, dir, part, elem uint32
	data                  []byte
}

// sections enumerates the image's non-empty arrays in canonical order. The
// payload slices alias the image's arrays (no copies): callers must finish
// with them before mutating the image.
func (img *Image) sections() []secData {
	var out []secData
	add := func(kind, dir, part, elem uint32, data []byte) {
		if len(data) == 0 {
			return
		}
		out = append(out, secData{kind: kind, dir: dir, part: part, elem: elem, data: data})
	}
	add(secFwd, dirNone, 0, tripleSize, tripleBytes(img.Fwd))
	add(secOutDeg, dirNone, 0, 4, u32Bytes(img.OutDeg))
	add(secInDeg, dirNone, 0, 4, u32Bytes(img.InDeg))
	for d, parts := range [][]PartImage{img.Out, img.In} {
		dir := [2]uint32{dirOut, dirIn}[d]
		if len(parts) == 0 {
			continue
		}
		meta := make([]uint32, 0, metaWords*len(parts))
		for i := range parts {
			p := &parts[i]
			meta = append(meta, p.RowLo, p.RowHi, p.AuxShift, 0)
		}
		add(secPartMeta, dir, 0, 4, u32Bytes(meta))
		for i := range parts {
			p := &parts[i]
			add(secJC, dir, uint32(i), 4, u32Bytes(p.JC))
			add(secCP, dir, uint32(i), 4, u32Bytes(p.CP))
			add(secIR, dir, uint32(i), 4, u32Bytes(p.IR))
			add(secVal, dir, uint32(i), 4, f32Bytes(p.Val))
			add(secAux, dir, uint32(i), 4, u32Bytes(p.Aux))
		}
	}
	return out
}

// ---- raw byte views ----------------------------------------------------
//
// The writer and the reader reinterpret the same memory through these
// pairs, so the on-disk bytes are exactly the in-memory arrays (host byte
// order; see the package comment).

func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func tripleBytes(s []sparse.Triple[float32]) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), tripleSize*len(s))
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewTriples(b []byte) []sparse.Triple[float32] {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*sparse.Triple[float32])(unsafe.Pointer(&b[0])), len(b)/tripleSize)
}
