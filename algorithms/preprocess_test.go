package algorithms

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// twoSortPreprocess is the symmetric kinds' recipe as it was before
// Symmetrize's own stable sort and keep-first dedup were trusted alone: one
// row-major sort and keep-first dedup ran before Symmetrize. It is the oracle
// for preprocess.
func twoSortPreprocess(k updateKind, adj *graphmat.COO[float32]) {
	adj.RemoveSelfLoops()
	adj.SortRowMajor()
	adj.DedupKeepFirst()
	adj.Symmetrize()
	if k == updUpperTriangle {
		adj.UpperTriangle()
	}
}

// plantConflicts gives every fifth edge u→v a duplicate u→v, an antiparallel
// v→u (a second one for every fifteenth) and a self-loop, each with a weight
// no other triple has, then shuffles the whole input, so planted copies land
// both before and after the edges they conflict with and keep-first alone
// decides every surviving weight.
func plantConflicts(c *graphmat.COO[float32], seed uint64) *graphmat.COO[float32] {
	n := len(c.Entries)
	for i := 0; i < n; i += 5 {
		t, w := c.Entries[i], float32(1000+4*i)
		c.Add(t.Row, t.Col, w)
		c.Add(t.Col, t.Row, w+1)
		c.Add(t.Row, t.Row, w+2)
		if i%15 == 0 {
			c.Add(t.Col, t.Row, w+3)
		}
	}
	perm := gen.NewRNG(seed).Perm(uint32(len(c.Entries)))
	shuffled := make([]graphmat.Triple[float32], len(c.Entries))
	for i, p := range perm {
		shuffled[i] = c.Entries[p]
	}
	c.Entries = shuffled
	return c
}

// TestPreprocessSortsOnce: preprocess's one sort (Symmetrize's) yields the
// same triples, in the same order, as the two-sort recipe it replaced, for
// bfs/components' symmetric kind and triangles' upper-triangle kind, over
// every generator's graphs with planted duplicate and antiparallel edges.
func TestPreprocessSortsOnce(t *testing.T) {
	inputs := map[string]func() *graphmat.COO[float32]{
		"rmat": func() *graphmat.COO[float32] {
			return gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 3, MaxWeight: 20})
		},
		"grid": func() *graphmat.COO[float32] {
			return gen.Grid(gen.GridOptions{Width: 23, Height: 17, Diagonal: true, Seed: 4})
		},
		"erdosrenyi": func() *graphmat.COO[float32] { return gen.ErdosRenyi(400, 3000, 20, 5) },
		"bipartite": func() *graphmat.COO[float32] {
			return gen.Bipartite(gen.BipartiteOptions{Users: 90, Items: 60, Ratings: 1500, Seed: 6})
		},
	}
	for name, input := range inputs {
		for _, k := range []updateKind{updSymmetric, updUpperTriangle} {
			adj := plantConflicts(input(), 7)
			want := adj.Clone()
			twoSortPreprocess(k, want)
			k.preprocess(adj)
			if adj.NRows != want.NRows || adj.NCols != want.NCols || !slices.Equal(adj.Entries, want.Entries) {
				t.Errorf("%s kind %d: preprocess gave %d triples, the two-sort recipe %d, or they differ",
					name, k, len(adj.Entries), len(want.Entries))
			}
		}
	}
}

// TestBuildersRejectMalformedInput: a non-square adjacency and one with an
// entry outside it make every builder return New's error — the symmetric
// builders included, which sort before New validates — never panic.
func TestBuildersRejectMalformedInput(t *testing.T) {
	inputs := []struct {
		name, want string // want: what New's error names
		adj        func() *graphmat.COO[float32]
	}{
		{"non-square", "must be square, got 4x6", func() *graphmat.COO[float32] {
			c := &graphmat.COO[float32]{NRows: 4, NCols: 6}
			c.Add(0, 1, 1)
			c.Add(1, 5, 1)
			return c
		}},
		{"out-of-range", "(2,7) outside 4x4 matrix", func() *graphmat.COO[float32] {
			c := graphmat.NewCOO[float32](4)
			c.Add(0, 1, 1)
			c.Add(2, 7, 1)
			c.Add(3, 3, 1)
			return c
		}},
	}
	builders := map[string]func(*graphmat.COO[float32]) error{
		"NewBFSGraph":      func(c *graphmat.COO[float32]) error { _, err := NewBFSGraph(c, 2); return err },
		"NewCCGraph":       func(c *graphmat.COO[float32]) error { _, err := NewCCGraph(c, 2); return err },
		"NewTriangleGraph": func(c *graphmat.COO[float32]) error { _, err := NewTriangleGraph(c, 2); return err },
		"NewCFGraph":       func(c *graphmat.COO[float32]) error { _, err := NewCFGraph(c, 2); return err },
	}
	for _, spec := range Specs() {
		builders["Spec.Build/"+spec.Name] = func(c *graphmat.COO[float32]) error { _, err := spec.Build(c, 2); return err }
	}
	for _, in := range inputs {
		for name, build := range builders {
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return build(in.adj())
			}()
			if err == nil || !strings.Contains(err.Error(), in.want) {
				t.Errorf("%s on %s input: err = %v, want New's error naming %q", name, in.name, err, in.want)
			}
		}
	}
}
