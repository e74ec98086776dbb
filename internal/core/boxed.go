package core

import (
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// This file is the deliberately *unoptimized* execution path: the Figure 7
// ablation's pre-"+ipo" code. Every message, edge value and reduced value is
// boxed into an interface{}, user callbacks are reached through interface
// method calls, and the SpMV reads messages through an interface and reaches
// each column through a callback — none of it can inline, and scalar
// payloads allocate. This recreates what the paper's naive scalar build looks
// like before inter-procedural optimization, against the *same* graph
// structures, so the measured deltas isolate dispatch cost.

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

// boxedMessages is what the boxed kernel reads of a message vector: Boxed
// runs hold a bit-vector Vector, BoxedSorted runs a SortedVector.
type boxedMessages interface {
	Has(i uint32) bool
	Get(i uint32) any
}

// spmvBoxed folds one partition's live columns into y through the program's
// boxed callbacks: a column whose source holds a message sends it along each
// of its edges. Every column with edges counts as probed; a tombstone (a
// delta column whose edges were all deleted) has none and is not a column of
// the live partition.
func spmvBoxed[E any](part sparse.Layered[E], x boxedMessages, bp boxedProgram, y *sparse.Vector[any], st *localStats) {
	part.Columns(func(j uint32, rows []uint32, vals []E) {
		if len(rows) == 0 {
			return
		}
		st.probes++
		if !x.Has(j) {
			return
		}
		m := x.Get(j)
		st.edges += int64(len(rows))
		for k, dst := range rows {
			r := bp.process(m, vals[k], dst)
			if y.Has(dst) {
				y.Set(dst, bp.reduce(y.Get(dst), r))
			} else {
				y.Set(dst, r)
			}
		}
	})
}

// runBoxed is the boxed ablation's front-end, over one-column state st:
// type-erased scratch of its own, one multiply task per partition like the
// typed engine's, and no direction choice — the naive path predates
// the kernel layer's push mode, so it always pulls. It keeps its own send and
// apply rather than runPhases' typed word loops, and never fuses them into one
// phase, because its interface-boxed callbacks are what Figure 7's "naive" and
// "+bitvector" rows measure against "+ipo".
func runBoxed[V, E, M, R any, P Program[V, E, M, R]](g *graph.Graph[E], p P, cfg Config, ctrl *controller, st *BlockState[V]) (Stats, error) {
	n := int(g.NumVertices())
	d := newDriver(cfg, ctrl, n)
	active := st.summary
	dir := p.Direction()
	bp := &boxedAdapter[V, E, M, R]{p: p, props: st.props}

	var dirs [][]sparse.Layered[E]
	if dir&graph.Out != 0 {
		dirs = append(dirs, g.OutLayers())
	}
	if dir&graph.In != 0 {
		dirs = append(dirs, g.InLayers())
	}

	// The run's message vector: a bit-vector Vector (Boxed) or a
	// SortedVector (BoxedSorted), each filled by its own send.
	var msgs boxedMessages
	var send func() (int64, int64)
	if cfg.Dispatch == Boxed {
		x := sparse.NewVector[any](n)
		msgs = x
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
		xs := &sparse.SortedVector[any]{}
		msgs = xs
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
	apply := d.overChunks(func(lo, hi uint32, st *localStats) {
		y.IterateRange(lo, hi, func(v uint32, r any) {
			st.applies++
			if bp.apply(r, v) {
				active.Set(v)
			}
		})
	})

	// No messages: the loop never asks apply to send, so every superstep
	// runs the boxed send phase.
	return d.run(phaseSet{
		active: active, mode: Pull,
		send:       send,
		reactivate: st.reactivation(p),
		multiply: func(Mode, bool) {
			y.Reset()
			for _, parts := range dirs {
				parallelFor(d.ex, len(parts), d.stop, func(i, w int) {
					spmvBoxed(parts[i], msgs, bp, y, &d.locals[w])
				})
			}
		},
		apply: func(bool) { apply() },
	})
}
