package core

import (
	"fmt"
	"math"
	"testing"
)

// pprLikeVertex has the shape of algorithms.PPRVertex, the widest property a
// block run extracts.
type pprLikeVertex struct{ Rank, InvDeg, Restart float64 }

// checkColumns fills an n × k block with prop and asserts Columns() is the
// per-column view Prop gives: k columns of n values each.
func checkColumns[V comparable](t *testing.T, n, k int, prop func(v uint32, s int) V) {
	t.Helper()
	st := NewBlockState[V](n, k)
	st.InitProps(prop)
	cols := st.Columns()
	if len(cols) != k {
		t.Fatalf("n=%d k=%d: %d columns", n, k, len(cols))
	}
	for s, col := range cols {
		if len(col) != n {
			t.Fatalf("n=%d k=%d: column %d has %d values", n, k, s, len(col))
		}
		for v, p := range col {
			if want := st.Prop(uint32(v), s); p != want {
				t.Fatalf("n=%d k=%d: cols[%d][%d] = %v, Prop says %v", n, k, s, v, p, want)
			}
		}
	}
}

// TestBlockColumns covers the k = 1 copy and the tiled transpose at every
// tile boundary: no vertices, one, one short of a tile, one tile, a tile and
// one, and 1000 vertices, whose last tile holds 40.
func TestBlockColumns(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, k := range []int{1, 2, 16, 63, 64} {
			t.Run(fmt.Sprintf("n%d/k%d", n, k), func(t *testing.T) {
				checkColumns(t, n, k, func(v uint32, s int) uint32 { return v*64 + uint32(s) })
				checkColumns(t, n, k, func(v uint32, s int) float32 {
					if (int(v)+s)%3 == 0 {
						return math.MaxFloat32
					}
					return float32(v) + float32(s)/64
				})
				checkColumns(t, n, k, func(v uint32, s int) pprLikeVertex {
					return pprLikeVertex{Rank: float64(v) / float64(s+1), InvDeg: float64(s), Restart: float64(v)}
				})
			})
		}
	}
}

// BenchmarkBlockColumns times the result extraction of a block of 2^16
// vertices (float32 properties, as sssp's) at widths 1, 16 and 64, reporting
// ns/op per extraction. Run it with
//
//	go test -run='^$' -bench=BlockColumns ./internal/core
func BenchmarkBlockColumns(b *testing.B) {
	const n = 1 << 16
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			st := NewBlockState[float32](n, k)
			st.InitProps(func(v uint32, s int) float32 { return float32(v) + float32(s) })
			for b.Loop() {
				st.Columns()
			}
		})
	}
}
