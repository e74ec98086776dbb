package graph

import (
	"testing"

	"graphmat/internal/sparse"
)

// fig3COO builds the Figure 3 SSSP example graph:
// vertices A..E = 0..4, weighted directed edges.
func fig3COO() *sparse.COO[float32] {
	c := sparse.NewCOO[float32](5, 5)
	c.Add(0, 1, 1) // A->B 1
	c.Add(0, 2, 3) // A->C 3
	c.Add(0, 3, 2) // A->D 2
	c.Add(1, 2, 1) // B->C 1
	c.Add(3, 4, 2) // D->E 2
	c.Add(4, 0, 4) // E->A 4
	c.Add(2, 3, 2) // C->D 2
	return c
}

func TestNewFromCOO(t *testing.T) {
	g, err := NewFromCOO[float32](fig3COO(), Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 7 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 3 || g.InDegree(0) != 1 {
		t.Errorf("vertex 0 degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(2) != 1 || g.InDegree(2) != 2 {
		t.Errorf("vertex 2 degrees: out=%d in=%d", g.OutDegree(2), g.InDegree(2))
	}
	if len(g.outParts) != 2 {
		t.Errorf("partitions = %d", len(g.outParts))
	}
	// Total nnz across partitions equals edge count.
	total := 0
	for _, p := range g.outParts {
		total += p.NNZ()
	}
	if total != 7 {
		t.Errorf("partition nnz total = %d", total)
	}
}

func TestRejectNonSquare(t *testing.T) {
	c := sparse.NewCOO[float32](3, 4)
	if _, err := NewFromCOO[float32](c, Options{}); err == nil {
		t.Error("non-square adjacency accepted")
	}
}

func TestRejectOutOfBounds(t *testing.T) {
	c := sparse.NewCOO[float32](2, 2)
	c.Add(5, 0, 1)
	if _, err := NewFromCOO[float32](c, Options{}); err == nil {
		t.Error("out-of-bounds edge accepted")
	}
}

// TestRejectUnknownDirections: a Directions bit outside Both names no
// traversal structure, so the build refuses it rather than build none.
func TestRejectUnknownDirections(t *testing.T) {
	for _, dirs := range []Direction{4, Out | 8} {
		if _, err := NewFromCOO[float32](fig3COO(), Options{Directions: dirs}); err == nil {
			t.Errorf("Directions %#x accepted", int(dirs))
		}
		if _, err := NewStore[float32](fig3COO(), Options{Directions: dirs}); err == nil {
			t.Errorf("store with Directions %#x accepted", int(dirs))
		}
	}
}

func TestDedupOnBuild(t *testing.T) {
	c := sparse.NewCOO[float32](3, 3)
	c.Add(0, 1, 1)
	c.Add(0, 1, 9)
	c.Add(1, 2, 1)
	g, err := NewFromCOO[float32](c, Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	orig := fig3COO()
	want := orig.Clone()
	want.SortRowMajor()
	g, err := NewFromCOO[float32](orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Adjacency()
	if len(adj.Entries) != len(want.Entries) {
		t.Fatalf("adjacency nnz %d != %d", len(adj.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if adj.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d: %v != %v", i, adj.Entries[i], want.Entries[i])
		}
	}
}
