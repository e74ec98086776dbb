package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// The write-ahead log holds every RAW update batch accepted since the last
// checkpoint, in acceptance order. One record per batch:
//
//	magic  u32  "1WMG" (walMagic)
//	count  u32  updates in the batch
//	epoch  u64  the graph-entry epoch this batch PRODUCES
//	count × { src u32, dst u32, valbits u32 (IEEE-754), flags u32 (bit0 = delete) }
//	crc    u32  CRC-32C over count..updates
//
// The other 31 flag bits are reserved and written as zero; a record with one
// set is corrupt, so every record replay accepts re-encodes to its own bytes.
//
// Append fsyncs before returning, so a batch is only acknowledged to the
// client once it is durable. Replay reads the longest valid prefix and
// truncates anything after it — a torn tail (the crash happened mid-append,
// before the ack) is discarded, never misparsed.

const (
	walMagic      = 0x474d5731 // "GMW1" little-endian
	walHeaderSize = 16
	walRecordSize = 16
	// walMaxBatch bounds a record's declared update count so a corrupt
	// header cannot make replay allocate unboundedly.
	walMaxBatch = 1 << 26
)

// WALUpdate is one raw edge mutation as stored in the log. It mirrors the
// graph layer's Update[float32] field for field; defined here so snap stays
// importable from internal/graph without a cycle.
type WALUpdate struct {
	Src, Dst uint32
	Val      float32
	Del      bool
}

// WALBatch is one replayed log record: the update batch and the entry
// epoch it produced.
type WALBatch struct {
	Epoch   uint64
	Updates []WALUpdate
}

// WAL is an open write-ahead log positioned for appending.
type WAL struct {
	f       *os.File
	path    string
	batches int64
	records int64
}

// CreateWAL creates (or truncates) an empty log at path and syncs its
// directory entry.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &WAL{f: f, path: path}, nil
}

// OpenWAL opens path (creating it if absent), replays its valid record
// prefix, truncates any torn tail, and returns the log positioned for
// appending together with the replayed batches.
func OpenWAL(path string) (*WAL, []WALBatch, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("snap: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("snap: %w", err)
	}
	batches, valid := parseWAL(data)
	if int64(valid) != int64(len(data)) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("snap: truncating torn WAL tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("snap: %w", err)
	}
	w := &WAL{f: f, path: path, batches: int64(len(batches))}
	for _, b := range batches {
		w.records += int64(len(b.Updates))
	}
	return w, batches, nil
}

// ReadWAL replays the valid record prefix of path without opening it for
// writing (used for the previous generation's log during fallback boot).
// A missing file is an empty log.
func ReadWAL(path string) ([]WALBatch, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	batches, _ := parseWAL(data)
	return batches, nil
}

// parseWAL decodes the longest valid record prefix, returning the batches
// and the byte length of that prefix.
func parseWAL(data []byte) ([]WALBatch, int) {
	var out []WALBatch
	off := 0
	for {
		rec, n := parseWALRecord(data[off:])
		if n == 0 {
			return out, off
		}
		out = append(out, rec)
		off += n
	}
}

// parseWALRecord decodes one record from the front of b; n == 0 means no
// complete valid record starts there (torn tail or corruption).
func parseWALRecord(b []byte) (WALBatch, int) {
	if len(b) < walHeaderSize {
		return WALBatch{}, 0
	}
	if binary.LittleEndian.Uint32(b[0:4]) != walMagic {
		return WALBatch{}, 0
	}
	count := binary.LittleEndian.Uint32(b[4:8])
	if count > walMaxBatch {
		return WALBatch{}, 0
	}
	total := walHeaderSize + int(count)*walRecordSize + 4
	if len(b) < total {
		return WALBatch{}, 0
	}
	body := b[4 : total-4]
	if binary.LittleEndian.Uint32(b[total-4:total]) != crc32.Checksum(body, crcTable) {
		return WALBatch{}, 0
	}
	rec := WALBatch{
		Epoch:   binary.LittleEndian.Uint64(b[8:16]),
		Updates: make([]WALUpdate, count),
	}
	for i := range rec.Updates {
		u := b[walHeaderSize+i*walRecordSize:]
		if binary.LittleEndian.Uint32(u[12:16]) > 1 {
			return WALBatch{}, 0
		}
		rec.Updates[i] = WALUpdate{
			Src: binary.LittleEndian.Uint32(u[0:4]),
			Dst: binary.LittleEndian.Uint32(u[4:8]),
			Val: math.Float32frombits(binary.LittleEndian.Uint32(u[8:12])),
			Del: binary.LittleEndian.Uint32(u[12:16])&1 != 0,
		}
	}
	return rec, total
}

// Append encodes one accepted batch, writes it, and fsyncs. Only after
// Append returns nil may the batch be acknowledged upstream.
func (w *WAL) Append(epoch uint64, updates []WALUpdate) error {
	if len(updates) > walMaxBatch {
		return fmt.Errorf("snap: WAL batch of %d updates exceeds the format limit %d", len(updates), walMaxBatch)
	}
	buf := make([]byte, walHeaderSize+len(updates)*walRecordSize+4)
	binary.LittleEndian.PutUint32(buf[0:4], walMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(updates)))
	binary.LittleEndian.PutUint64(buf[8:16], epoch)
	for i, u := range updates {
		rec := buf[walHeaderSize+i*walRecordSize:]
		binary.LittleEndian.PutUint32(rec[0:4], u.Src)
		binary.LittleEndian.PutUint32(rec[4:8], u.Dst)
		binary.LittleEndian.PutUint32(rec[8:12], math.Float32bits(u.Val))
		var flags uint32
		if u.Del {
			flags = 1
		}
		binary.LittleEndian.PutUint32(rec[12:16], flags)
	}
	end := len(buf)
	binary.LittleEndian.PutUint32(buf[end-4:end], crc32.Checksum(buf[4:end-4], crcTable))
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("snap: appending to WAL %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("snap: syncing WAL %s: %w", w.path, err)
	}
	w.batches++
	w.records += int64(len(updates))
	return nil
}

// Batches reports the record count appended plus replayed through this
// handle.
func (w *WAL) Batches() int64 { return w.batches }

// Records reports the update count appended plus replayed through this
// handle.
func (w *WAL) Records() int64 { return w.records }

// Close closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	return f.Close()
}
