package graph

import (
	"fmt"

	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// This file connects the versioned store to the GMATSNAP persistence format
// (internal/snap): StoreImage dumps a store's current graph as a raw-array
// image the snapshot writer can lay out, and NewStoreFromImage rebuilds a
// store from such an image — zero-copy when the image's arrays are views
// into an mmap'd file, turning boot from an O(edges) rebuild into
// O(partitions) pointer assembly. A property graph's image is its partition
// arrays, its degree arrays and a header — the partitions are the edge set,
// in the file as in memory. The edge type is fixed to float32: that is the
// one edge type every registered algorithm uses, and a single concrete type
// is what gives the format a single value layout.

// StoreImage captures a point-in-time image of the store's current graph,
// compacting any pending overlay first (the image format carries base
// structures only — "base + overlay one level down" means the WAL holds the
// overlay's updates, not the snapshot file). The compacted graph is
// published, so the store benefits from the fold it just paid for. tag is
// the writer's consistency mark, stored verbatim (see snap.Image.Tag).
//
// The image's arrays ALIAS the published graph's: they are immutable by the
// store's snapshot contract, but the caller must finish serializing before
// dropping its store reference.
func StoreImage(s *Store[float32], tag uint64) (*snap.Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	g := old.g
	if g.pendingUpdates != 0 {
		g = g.compacted()
		s.cur.Store(&Snapshot[float32]{store: s, g: g})
		s.compactions.Add(1)
		s.notifyCompact(g.epoch)
	}
	return imageOf(g, tag)
}

// imageOf dumps one overlay-free graph's internals as a snapshot image.
func imageOf(g *Graph[float32], tag uint64) (*snap.Image, error) {
	if g.pendingUpdates != 0 {
		return nil, fmt.Errorf("graph: cannot image a graph with %d pending updates (compact first)", g.pendingUpdates)
	}
	img := &snap.Image{
		Epoch:      g.epoch,
		Tag:        tag,
		NRows:      g.n,
		NCols:      g.n,
		NEdges:     uint64(g.m),
		Partitions: uint32(g.opts.Partitions),
		OutDeg:     g.outDeg,
		InDeg:      g.inDeg,
	}
	if g.opts.Directions&Out != 0 {
		img.Directions |= snap.DirsOut
		img.Out = partImages(g.outParts)
	}
	if g.opts.Directions&In != 0 {
		img.Directions |= snap.DirsIn
		img.In = partImages(g.inParts)
	}
	return img, nil
}

func partImages(parts []*sparse.DCSC[float32]) []snap.PartImage {
	out := make([]snap.PartImage, len(parts))
	for i, p := range parts {
		out[i] = snap.PartImage{
			RowLo: p.RowLo,
			RowHi: p.RowHi,
			JC:    p.JC,
			CP:    p.CP,
			IR:    p.IR,
			Val:   p.Val,
		}
	}
	return out
}

// NewGraphFromImage reconstructs a property graph over an image's arrays
// without copying or rebuilding anything: partitions are assembled through
// sparse.NewDCSCView and the degree arrays are adopted as-is. Each
// partition's column index is derived state, built on the heap by the first
// push or column lookup that needs it, exactly as on a built graph; boot
// builds none. When the image is an mmap view the resulting graph's
// structural arrays live in the page cache — the on-heap build path
// (NewFromCOO over the same input) remains the differential oracle
// asserting the two are bit-identical.
func NewGraphFromImage(img *snap.Image) (*Graph[float32], error) {
	if img.Directions == 0 {
		return nil, fmt.Errorf("graph: image is a raw adjacency dump, not a property graph")
	}
	opts := Options{Partitions: int(img.Partitions)}
	if opts.Partitions <= 0 {
		opts.Partitions = max(len(img.Out), len(img.In))
	}
	if img.Directions&snap.DirsOut != 0 {
		opts.Directions |= Out
	}
	if img.Directions&snap.DirsIn != 0 {
		opts.Directions |= In
	}
	opts = opts.withDefaults()
	n := img.NRows
	g := &Graph[float32]{
		n:      n,
		m:      int64(img.NEdges),
		epoch:  img.Epoch,
		outDeg: img.OutDeg,
		inDeg:  img.InDeg,
		opts:   opts,
	}
	var err error
	if img.Directions&snap.DirsOut != 0 {
		if g.outParts, err = viewParts(img.Out, n); err != nil {
			return nil, fmt.Errorf("graph: out %w", err)
		}
	}
	if img.Directions&snap.DirsIn != 0 {
		if g.inParts, err = viewParts(img.In, n); err != nil {
			return nil, fmt.Errorf("graph: in %w", err)
		}
	}
	return g, nil
}

func viewParts(parts []snap.PartImage, n uint32) ([]*sparse.DCSC[float32], error) {
	out := make([]*sparse.DCSC[float32], len(parts))
	for i := range parts {
		p := &parts[i]
		d, err := sparse.NewDCSCView(n, n, p.RowLo, p.RowHi, p.JC, p.CP, p.IR, p.Val)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// NewStoreFromImage rebuilds a versioned store whose current snapshot is
// the image's graph, at the image's epoch. Subsequent ApplyEdges batches
// layer delta overlays over the mapped base exactly as they would over a
// built one; the first compaction folds everything onto the heap and the
// mapping stops being referenced by newer epochs.
func NewStoreFromImage(img *snap.Image) (*Store[float32], error) {
	g, err := NewGraphFromImage(img)
	if err != nil {
		return nil, err
	}
	s := &Store[float32]{}
	s.cur.Store(&Snapshot[float32]{store: s, g: g})
	return s, nil
}
