package graph

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

func imageTestAdj() *sparse.COO[float32] {
	adj := sparse.NewCOO[float32](64, 64)
	for i := uint32(0); i < 63; i++ {
		adj.Add(i, i+1, float32(i%7)+1)
		adj.Add(i, (i*13+5)%64, float32(i%3)+0.5)
	}
	return adj
}

// TestStoreImageRoundTrip proves the persistence contract at the graph
// layer: a store imaged, written to a GMATSNAP file, mapped back and
// reassembled through NewStoreFromImage is structurally identical to the
// original — same epoch, same live triples, same degree arrays, same
// partition arrays — and keeps accepting update batches afterwards.
func TestStoreImageRoundTrip(t *testing.T) {
	adj := imageTestAdj()
	st, err := NewStore[float32](adj.Clone(), Options{Partitions: 3, Directions: Both})
	if err != nil {
		t.Fatal(err)
	}

	// Leave a pending overlay so StoreImage has something to compact, and
	// hook OnCompact to assert the image path reports its fold.
	var compactEpochs []uint64
	st.OnCompact(func(epoch uint64) { compactEpochs = append(compactEpochs, epoch) })
	if _, err := st.ApplyEdges([]Update[float32]{{Src: 0, Dst: 63, Val: 4.5}}); err != nil {
		t.Fatal(err)
	}

	img, err := StoreImage(st, 42)
	if err != nil {
		t.Fatal(err)
	}
	if img.Tag != 42 {
		t.Errorf("tag = %d, want the writer's mark 42", img.Tag)
	}
	if img.Epoch != st.Epoch() {
		t.Errorf("image epoch = %d, store epoch = %d", img.Epoch, st.Epoch())
	}
	if len(compactEpochs) != 1 || compactEpochs[0] != st.Epoch() {
		t.Errorf("OnCompact fired with %v, want [%d]: StoreImage must report the fold it performs", compactEpochs, st.Epoch())
	}

	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snap.Write(path, img); err != nil {
		t.Fatal(err)
	}
	sf, err := snap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()

	st2, err := NewStoreFromImage(sf.Image())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != st.Epoch() || st2.NumVertices() != st.NumVertices() || st2.NumEdges() != st.NumEdges() {
		t.Fatalf("loaded store = (epoch %d, %d vertices, %d edges), want (%d, %d, %d)",
			st2.Epoch(), st2.NumVertices(), st2.NumEdges(), st.Epoch(), st.NumVertices(), st.NumEdges())
	}

	s1, s2 := st.Acquire(), st2.Acquire()
	defer s1.Release()
	defer s2.Release()
	g1, g2 := s1.g, s2.g
	if !reflect.DeepEqual(g1.triples(Out).Entries, g2.triples(Out).Entries) {
		t.Error("forward triples differ after round trip")
	}
	if !reflect.DeepEqual(g1.triples(In).Entries, g2.triples(In).Entries) {
		t.Error("backward triples differ after round trip")
	}
	if !reflect.DeepEqual(g1.outDeg, g2.outDeg) || !reflect.DeepEqual(g1.inDeg, g2.inDeg) {
		t.Error("degree arrays differ after round trip")
	}
	sameDCSCs(t, "out partitions after round trip", g1.outParts, g2.outParts)
	sameDCSCs(t, "in partitions after round trip", g1.inParts, g2.inParts)

	// The mapped base keeps taking updates like a built one.
	if _, err := st2.ApplyEdges([]Update[float32]{{Src: 5, Dst: 0, Val: 1}, {Src: 0, Dst: 1, Del: true}}); err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != st.Epoch()+1 {
		t.Errorf("epoch after update on mapped store = %d, want %d", st2.Epoch(), st.Epoch()+1)
	}
}

// TestImageRejectsRawForStore asserts the property-graph boot path refuses a
// master-copy image, which has no partitions to assemble.
func TestImageRejectsRawForStore(t *testing.T) {
	raw := &snap.Image{NRows: 4, NCols: 4, NEdges: 1,
		Fwd: []sparse.Triple[float32]{{Row: 0, Col: 1, Val: 1}}}
	if _, err := NewStoreFromImage(raw); err == nil {
		t.Fatal("raw adjacency image accepted as a property graph")
	}
}

// TestPropertyImageIsPartitionsOnly pins the image's size to what a property
// graph is: partition arrays, degree arrays and a header. An RMAT store's
// GMATSNAP file is at most 12 bytes per edge and has no triple section (with
// the forward triples riding along it was 22.9 at this size).
func TestPropertyImageIsPartitionsOnly(t *testing.T) {
	st, err := NewStore(oneCopyAdj(), Options{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	img, err := StoreImage(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if img.Fwd != nil {
		t.Error("a property image carries triples")
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snap.Write(path, img); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := float64(fi.Size()) / float64(st.NumEdges())
	t.Logf("%d edges, %d-byte image: %.1f B/edge", st.NumEdges(), fi.Size(), perEdge)
	if perEdge > 12 {
		t.Errorf("property image is %.1f B/edge, want <= 12", perEdge)
	}
}
