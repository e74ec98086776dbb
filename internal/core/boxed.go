package core

import (
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// This file is the deliberately *unoptimized* execution path: the Figure 7
// ablation's pre-"+ipo" code. Every message, edge value and reduced value is
// boxed into an interface{}, user callbacks are reached through interface
// method calls, and the SpMV traverses partitions through an interface —
// none of it can inline, and scalar payloads allocate. This recreates what
// the paper's naive scalar build looks like before inter-procedural
// optimization, against the *same* graph structures, so the measured deltas
// isolate dispatch cost.

// boxedPartition lets the boxed kernel walk a partition — a plain DCSC or a
// base+delta overlay — without being specialized to the edge type. Columns
// are addressed by position in the partition's live column sequence and
// edges by offset within their column, so an overlay can interleave its two
// layers behind the same interface.
type boxedPartition interface {
	numColumns() int
	column(ci int) (col uint32, nedges int)
	edge(ci, k int) (dst uint32, val any)
}

type boxedDCSC[E any] struct{ part *sparse.DCSC[E] }

func (b boxedDCSC[E]) numColumns() int { return len(b.part.JC) }
func (b boxedDCSC[E]) column(ci int) (uint32, int) {
	return b.part.JC[ci], int(b.part.CP[ci+1] - b.part.CP[ci])
}
func (b boxedDCSC[E]) edge(ci, k int) (uint32, any) {
	at := b.part.CP[ci] + uint32(k)
	return b.part.IR[at], b.part.Val[at]
}

// overlayColRef locates one live column of a layered partition: which layer
// stores it and at which position.
type overlayColRef struct {
	col   uint32
	delta bool
	ci    int32
}

// boxedOverlay walks a base+delta partition in merged column order. The
// column refs are precomputed at boxing time (O(columns), no edge copying),
// preserving the boxed path's no-materialization property.
type boxedOverlay[E any] struct {
	base, delta *sparse.DCSC[E]
	cols        []overlayColRef
}

func (b *boxedOverlay[E]) numColumns() int { return len(b.cols) }
func (b *boxedOverlay[E]) layer(ci int) (*sparse.DCSC[E], int) {
	ref := b.cols[ci]
	if ref.delta {
		return b.delta, int(ref.ci)
	}
	return b.base, int(ref.ci)
}
func (b *boxedOverlay[E]) column(ci int) (uint32, int) {
	d, i := b.layer(ci)
	return b.cols[ci].col, int(d.CP[i+1] - d.CP[i])
}
func (b *boxedOverlay[E]) edge(ci, k int) (uint32, any) {
	d, i := b.layer(ci)
	at := d.CP[i] + uint32(k)
	return d.IR[at], d.Val[at]
}

func boxLayers[E any](layers []sparse.Layered[E]) []boxedPartition {
	out := make([]boxedPartition, len(layers))
	for i, l := range layers {
		if l.Delta == nil {
			out[i] = boxedDCSC[E]{part: l.Base}
			continue
		}
		b, d := l.Base, l.Delta
		cols := make([]overlayColRef, 0, len(b.JC)+len(d.JC))
		bi, di := 0, 0
		for bi < len(b.JC) || di < len(d.JC) {
			if di >= len(d.JC) || (bi < len(b.JC) && b.JC[bi] < d.JC[di]) {
				cols = append(cols, overlayColRef{col: b.JC[bi], ci: int32(bi)})
				bi++
				continue
			}
			j := d.JC[di]
			if bi < len(b.JC) && b.JC[bi] == j {
				bi++ // overridden
			}
			if d.CP[di+1] > d.CP[di] { // tombstones are not live columns
				cols = append(cols, overlayColRef{col: j, delta: true, ci: int32(di)})
			}
			di++
		}
		out[i] = &boxedOverlay[E]{base: b, delta: d, cols: cols}
	}
	return out
}

// boxedProgram is the dispatch-erased view of a Program.
type boxedProgram interface {
	send(v VertexID) (any, bool)
	process(m, e any, dst VertexID) any
	reduce(a, b any) any
	apply(r any, v VertexID) bool
}

type boxedAdapter[V, E, M, R any] struct {
	p     Program[V, E, M, R]
	props []V
}

func (a *boxedAdapter[V, E, M, R]) send(v VertexID) (any, bool) {
	m, ok := a.p.SendMessage(v, a.props[v])
	return m, ok
}

func (a *boxedAdapter[V, E, M, R]) process(m, e any, dst VertexID) any {
	return a.p.ProcessMessage(m.(M), e.(E), a.props[dst])
}

func (a *boxedAdapter[V, E, M, R]) reduce(x, y any) any {
	return a.p.Reduce(x.(R), y.(R))
}

func (a *boxedAdapter[V, E, M, R]) apply(r any, v VertexID) bool {
	return a.p.Apply(r.(R), v, &a.props[v])
}

func spmvBoxedBitvec(part boxedPartition, x *sparse.Vector[any], bp boxedProgram, y *sparse.Vector[any], st *localStats) {
	n := part.numColumns()
	edges := int64(0)
	for ci := 0; ci < n; ci++ {
		j, ne := part.column(ci)
		if !x.Has(j) {
			continue
		}
		m := x.Get(j)
		edges += int64(ne)
		for k := 0; k < ne; k++ {
			dst, e := part.edge(ci, k)
			r := bp.process(m, e, dst)
			if y.Has(dst) {
				y.Set(dst, bp.reduce(y.Get(dst), r))
			} else {
				y.Set(dst, r)
			}
		}
	}
	st.probes += int64(n)
	st.edges += edges
}

func spmvBoxedSorted(part boxedPartition, xs *sparse.SortedVector[any], bp boxedProgram, y *sparse.Vector[any], st *localStats) {
	n := part.numColumns()
	edges := int64(0)
	for ci := 0; ci < n; ci++ {
		j, ne := part.column(ci)
		if !xs.Has(j) {
			continue
		}
		m := xs.Get(j)
		edges += int64(ne)
		for k := 0; k < ne; k++ {
			dst, e := part.edge(ci, k)
			r := bp.process(m, e, dst)
			if y.Has(dst) {
				y.Set(dst, bp.reduce(y.Get(dst), r))
			} else {
				y.Set(dst, r)
			}
		}
	}
	st.probes += int64(n)
	st.edges += edges
}

// runBoxed is the boxed ablation's front-end: type-erased scratch of its
// own, whole-partition multiply tasks (its kernels take whole partitions),
// and no direction choice — the naive path predates the kernel layer's push
// mode, so it always pulls.
func runBoxed[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[V, E], p P, cfg Config, ctrl *controller) (Stats, error) {
	n := int(g.NumVertices())
	d := newDriver(cfg, ctrl, n)
	active := g.Active()
	dir := p.Direction()
	bp := &boxedAdapter[V, E, M, R]{p: p, props: g.Props()}

	var dirs [][]boxedPartition
	if dir&graph.Out != 0 {
		dirs = append(dirs, boxLayers(g.OutLayers()))
	}
	if dir&graph.In != 0 {
		dirs = append(dirs, boxLayers(g.InLayers()))
	}

	// Exactly one of x and xs is the run's message vector.
	var x *sparse.Vector[any]
	var xs *sparse.SortedVector[any]
	var send func() (int64, int64)
	if cfg.Vector == Bitvector {
		x = sparse.NewVector[any](n)
		sendChunks := d.overChunks(func(lo, hi uint32, _ *localStats) {
			active.IterateRange(lo, hi, func(v uint32) {
				if m, ok := bp.send(v); ok {
					x.Set(v, m)
				}
			})
		})
		send = func() (int64, int64) {
			x.Reset()
			sendChunks()
			sent := int64(x.NNZ())
			return sent, sent
		}
	} else {
		// A sorted vector only appends: chunks collect their runs in
		// parallel and the caller concatenates them in chunk order.
		xs = sparse.NewSortedVector[any](n)
		runs := make([][]sparse.Entry[any], len(d.chunks)-1)
		send = func() (int64, int64) {
			xs.Reset()
			parallelFor(d.ex, len(runs), d.stop, func(c, w int) {
				var run []sparse.Entry[any]
				active.IterateRange(d.chunks[c], d.chunks[c+1], func(v uint32) {
					if m, ok := bp.send(v); ok {
						run = append(run, sparse.Entry[any]{Idx: v, Val: m})
					}
				})
				runs[c] = run
			})
			for c, run := range runs {
				for _, e := range run {
					xs.Append(e.Idx, e.Val)
				}
				runs[c] = nil
			}
			sent := int64(xs.NNZ())
			return sent, sent
		}
	}
	y := sparse.NewVector[any](n)

	return d.run(phaseSet{
		active: active, mode: Pull,
		send: send,
		multiply: func(Mode, bool) {
			y.Reset()
			for _, parts := range dirs {
				parallelFor(d.ex, len(parts), d.stop, func(i, w int) {
					if x != nil {
						spmvBoxedBitvec(parts[i], x, bp, y, &d.locals[w])
					} else {
						spmvBoxedSorted(parts[i], xs, bp, y, &d.locals[w])
					}
				})
			}
		},
		apply: d.overChunks(func(lo, hi uint32, st *localStats) {
			y.IterateRange(lo, hi, func(v uint32, r any) {
				st.applies++
				if bp.apply(r, v) {
					active.Set(v)
				}
			})
		}),
	})
}
