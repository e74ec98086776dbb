package core

import (
	"math"
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// TestWholePartitionFoldParity holds the mask-free fold of a whole
// partition — its rows seeded with the reduction's identity, then one
// unmasked add or min per edge — to the masked flat fold of the same edges,
// bit for bit in every output value and mask word, for the fused float64 sum
// and uint32 min sinks. The messages include ±0, quiet NaNs with distinct
// payloads, ±Inf and subnormals (labels 0 and MaxUint32); the graph has
// empty rows and a last partition ending off a 64-row boundary; the output
// starts with some rows already written, and a second direction folds into
// the rows the first one wrote. A view whose IR leaves its row range has no
// row mask and must fold masked.
func TestWholePartitionFoldParity(t *testing.T) {
	const n = 200 // the last partition, [128, 200), ends mid-word
	rng := gen.NewRNG(46)
	coo := sparse.NewCOO[float32](n, n)
	// Rows 0–4 of each 16 stay empty (sources only); row 5 of each 16 has
	// one in-edge, from vertex r/16, so a lone special message is a row's
	// whole result; the rest draw random in-edges.
	seen := map[[2]uint32]bool{}
	for r := uint32(5); r < n; r += 16 {
		seen[[2]uint32{r, r / 16}] = true
		coo.Add(r, r/16, 1)
	}
	for len(seen) < 900 {
		e := [2]uint32{rng.Uint32n(n), rng.Uint32n(n)}
		if e[0]%16 < 6 || seen[e] {
			continue
		}
		seen[e] = true
		coo.Add(e[0], e[1], 1)
	}
	out, in := coo, coo.Clone()
	in.Transpose()
	out.SortColMajor()
	in.SortColMajor()
	cuts := [][2]uint32{{0, 64}, {64, 128}, {128, n}}
	var dirs [2][]sparse.Layered[float32]
	for d, c := range []*sparse.COO[float32]{out, in} {
		for _, cut := range cuts {
			dirs[d] = append(dirs[d], sparse.Layered[float32]{Base: sparse.BuildDCSC(c, cut[0], cut[1])})
		}
	}
	for _, l := range dirs[0] {
		if l.Base.RowMask() == nil {
			t.Fatalf("fixture: partition [%d, %d) has no row mask", l.Base.RowLo, l.Base.RowHi)
		}
	}

	f64s, u32s := walkSpecialsF64, walkSpecialsU32
	xf, xu := sparse.NewVector[float64](n), sparse.NewVector[uint32](n)
	for v := uint32(0); v < n; v++ {
		// The lone in-edges' sources, 0–12, send the specials in turn;
		// the rest a special or an ordinary value at random.
		switch {
		case v <= 12:
			xf.Set(v, f64s[int(v)%len(f64s)])
			xu.Set(v, u32s[v%uint32(len(u32s))])
		case rng.Intn(2) == 0:
			xf.Set(v, f64s[rng.Intn(len(f64s))])
			xu.Set(v, u32s[rng.Intn(len(u32s))])
		default:
			xf.Set(v, math.Ldexp(1+rng.Float64(), rng.Intn(81)-40))
			xu.Set(v, uint32(rng.Uint64()))
		}
	}
	// pre is the rows written before the fold, with their values.
	pre := map[uint32]int{}
	for len(pre) < 30 {
		pre[rng.Uint32n(n)] = rng.Intn(len(f64s))
	}

	for _, tc := range []struct {
		name string
		dirs [][]sparse.Layered[float32]
		pre  bool
	}{
		{"one_direction", dirs[:1], false},
		{"one_direction_prewritten", dirs[:1], true},
		{"two_directions", dirs[:], false},
		{"two_directions_prewritten", dirs[:], true},
	} {
		t.Run(tc.name+"/sum_f64", func(t *testing.T) {
			newY := func() *sparse.Vector[float64] {
				y := sparse.NewVector[float64](n)
				for v, i := range pre {
					if tc.pre {
						y.Set(v, f64s[i])
					}
				}
				return y
			}
			checkWholeFold(t, tc.dirs, newY, func(y *sparse.Vector[float64]) colSink[float32] {
				return scalarSink(sumFoldProg{}, xf, make([]float64, n), y)
			}, xf.Mask().Words(), math.Float64bits)
		})
		t.Run(tc.name+"/min_u32", func(t *testing.T) {
			newY := func() *sparse.Vector[uint32] {
				y := sparse.NewVector[uint32](n)
				for v, i := range pre {
					if tc.pre {
						y.Set(v, u32s[i%len(u32s)])
					}
				}
				return y
			}
			checkWholeFold(t, tc.dirs, newY, func(y *sparse.Vector[uint32]) colSink[float32] {
				return scalarSink(ccFused{}, xu, make([]uint32, n), y)
			}, xu.Mask().Words(), func(r uint32) uint64 { return uint64(r) })
		})
	}

	// A view whose IR holds a row past its range, or whose range starts off
	// a word boundary, has no row mask: the walk folds it masked, so the
	// stray row's mask bit is set as the masked fold sets it.
	b := dirs[0][1].Base
	ir := append([]uint32(nil), b.IR...)
	ir[len(ir)/2] = 150
	stray, err := sparse.NewDCSCView(b.NRows, b.NCols, b.RowLo, b.RowHi, b.JC, b.CP, ir, b.Val)
	if err != nil {
		t.Fatal(err)
	}
	unaligned, err := sparse.NewDCSCView(b.NRows, b.NCols, b.RowLo-4, b.RowHi, b.JC, b.CP, b.IR, b.Val)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*sparse.DCSC[float32]{"ir_out_of_range": stray, "unaligned_row_lo": unaligned} {
		t.Run(name, func(t *testing.T) {
			if d.RowMask() != nil {
				t.Fatal("a view with rows outside its aligned range has a row mask")
			}
			checkWholeFold(t, [][]sparse.Layered[float32]{{{Base: d}}}, func() *sparse.Vector[float64] {
				return sparse.NewVector[float64](n)
			}, func(y *sparse.Vector[float64]) colSink[float32] {
				return scalarSink(sumFoldProg{}, xf, make([]float64, n), y)
			}, xf.Mask().Words(), math.Float64bits)
		})
	}
}

// checkWholeFold pulls every partition of each direction of dirs, in turn,
// under the full frontier xw into one output from newY — the whole-partition
// path, mask-free wherever a partition has a row mask — and the same
// partitions through the sink's masked foldFlat into another, and compares
// every mask word and every written value's bits.
func checkWholeFold[R any](t *testing.T, dirs [][]sparse.Layered[float32], newY func() *sparse.Vector[R], sinkOf func(*sparse.Vector[R]) colSink[float32], xw []uint64, bitsOf func(R) uint64) {
	t.Helper()
	got, want := newY(), newY()
	gotSink, wantSink := sinkOf(got), sinkOf(want).(flatSink[float32])
	var st localStats
	edges := 0
	for _, layers := range dirs {
		for _, l := range layers {
			multiply(Pull, l, xw, gotSink, nil, &st)
			d := l.Base
			wantSink.foldFlat(d.IR, d.Val, d.EdgeCols(), rowMask{})
			edges += d.NNZ()
		}
	}
	if st.flat != int64(edges) || st.edges != int64(edges) {
		t.Fatalf("walk folded %d edges, %d flat; the partitions hold %d", st.edges, st.flat, edges)
	}
	gw, ww := got.Mask().Words(), want.Mask().Words()
	for w := range ww {
		if gw[w] != ww[w] {
			t.Fatalf("mask word %d = %#x, masked fold %#x", w, gw[w], ww[w])
		}
	}
	gv, wv := got.Values(), want.Values()
	for v := range wv {
		if ww[v>>6]&(1<<(v&63)) == 0 {
			continue
		}
		if g, w := bitsOf(gv[v]), bitsOf(wv[v]); g != w {
			t.Fatalf("y[%d] = %#x, masked fold %#x", v, g, w)
		}
	}
}
