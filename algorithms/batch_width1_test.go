package algorithms

import (
	"context"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// The width-1 differential. The engine runs a one-column block on the scalar
// phases (core.RunBlockContext), so nothing above it chooses an engine by
// source count. These tests hold the spellings of one single-source query to
// each other bit for bit — values, epoch and engine Stats — for every
// batchable Spec: RunBatch with one source (by Source, by a one-element
// Sources, on a caller's pin), the public Run<Algo>Batch with a one-element
// source list and the scalar RunContext — on the as-built graph, on a pending
// overlay, and on a snapshot pinned before updates that have since become
// current.

// blockK1 is the block-engine oracle: the row's batch closure — the public
// Run<Algo>Batch function plus widening — on the pinned snapshot. Declared on
// the generic instance here so the tests can range over Specs() without a
// per-algorithm table of typed graphs.
func (i *instance[V]) blockK1(ctx context.Context, pin Pin, p Params, source uint32) ([]float64, error) {
	values, _, err := i.row.batch(ctx, pin.(*graphmat.Snapshot[V, float32]).Graph(), []uint32{source}, p.option(nil, nil))
	if err != nil {
		return nil, err
	}
	return values[0], nil
}

type blockOracle interface {
	blockK1(ctx context.Context, pin Pin, p Params, source uint32) ([]float64, error)
}

var width1Sources = []uint32{0, 2, 17, 511, 1023}

func width1Params(spec Spec) Params {
	var p Params
	if declares(spec, "iters") {
		p.Iterations = 12
	}
	return p
}

// sameAsScalar asserts a width-1 batch result carries the scalar run's
// values, epoch and engine tallies (Stats.Sched is wall-clock dependent).
func sameAsScalar(t *testing.T, what string, want Result, got BatchResult) {
	t.Helper()
	if len(got.Values) != 1 || len(got.Sources) != 1 {
		t.Fatalf("%s: %d series for %d sources, want one of each", what, len(got.Values), len(got.Sources))
	}
	sameSeries(t, what+" vs scalar run", want.Values, got.Values[0])
	if got.Epoch != want.Epoch {
		t.Fatalf("%s: epoch %d, scalar run says %d", what, got.Epoch, want.Epoch)
	}
	gs, ws := got.Stats, want.Stats
	gs.Sched, ws.Sched = graphmat.SchedStats{}, graphmat.SchedStats{}
	if gs != ws {
		t.Fatalf("%s: stats are not the scalar engine's:\n got %+v\nwant %+v", what, gs, ws)
	}
}

// checkWidth1 holds RunBatch (unpinned and pinned) / block k=1 / RunContext
// to each other for every test source and mode on the instance's current
// snapshot, and returns the Auto-mode scalar results by source.
func checkWidth1(t *testing.T, what string, spec Spec, inst Instance) map[uint32]Result {
	t.Helper()
	ctx := context.Background()
	pin := inst.AcquirePin()
	defer pin.Release()
	scalar := map[uint32]Result{}
	for _, src := range width1Sources {
		for _, mode := range []graphmat.Mode{graphmat.Auto, graphmat.Pull, graphmat.Push} {
			p := width1Params(spec)
			p.Source, p.Mode = src, mode
			want, err := inst.RunContext(ctx, p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.Epoch != pin.Epoch() {
				t.Fatalf("%s: scalar run on epoch %d, pin on %d", what, want.Epoch, pin.Epoch())
			}
			if mode == graphmat.Auto {
				scalar[src] = want
			}
			block, err := inst.(blockOracle).blockK1(ctx, pin, p, src)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, what+": block k=1 vs scalar run", want.Values, block)

			// The three ways a caller can say "one source".
			bySource, err := inst.RunBatch(ctx, nil, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAsScalar(t, what+": RunBatch{Source}", want, bySource)
			p.Source, p.Sources = 0, []uint32{src}
			byList, err := inst.RunBatch(ctx, nil, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAsScalar(t, what+": RunBatch{Sources:[s]}", want, byList)
			pinned, err := inst.RunBatch(ctx, pin, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAsScalar(t, what+": RunBatch on a pin", want, pinned)
		}
	}
	return scalar
}

func TestBatchWidth1IsTheScalarRun(t *testing.T) {
	baseAdj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	batches := updateBatches(baseAdj.NRows)
	master := baseAdj.Clone()
	graphmat.NormalizeAdjacency(master, 0)
	var err error
	for _, b := range batches {
		if master, err = graphmat.ApplyToAdjacency(master, b); err != nil {
			t.Fatal(err)
		}
	}
	lookup := NewRawEdgeLookup(master)
	ctx := context.Background()

	for _, spec := range Specs() {
		if !spec.Batchable {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(baseAdj.Clone(), 6)
			if err != nil {
				t.Fatal(err)
			}
			before := checkWidth1(t, "fresh build", spec, inst)

			// Pin the as-built epoch, then move the instance past it: the
			// pinned width-1 run must answer from the old edge set under the
			// old epoch while the new one is current.
			old := inst.AcquirePin()
			defer old.Release()
			for _, b := range batches {
				if _, err := inst.ApplyUpdates(b, lookup); err != nil {
					t.Fatal(err)
				}
			}
			if st := inst.StoreStats(); st.Compactions != 0 || st.OverlayNNZ == 0 {
				t.Fatalf("want the batches pending in the overlay, got %+v", st)
			}
			after := checkWidth1(t, "pending overlay", spec, inst)

			changed := false
			for _, src := range width1Sources {
				p := width1Params(spec)
				p.Sources = []uint32{src}
				got, err := inst.RunBatch(ctx, old, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameAsScalar(t, "pin taken before the updates", before[src], got)
				if got.Epoch == inst.Epoch() {
					t.Fatalf("old pin answered under the current epoch %d", got.Epoch)
				}
				block, err := inst.(blockOracle).blockK1(ctx, old, p, src)
				if err != nil {
					t.Fatal(err)
				}
				sameSeries(t, "old pin: block k=1 vs width-1 batch", block, got.Values[0])
				for v := range got.Values[0] {
					changed = changed || got.Values[0][v] != after[src].Values[v]
				}
			}
			if !changed {
				t.Fatal("the update batches changed no answer: the old-epoch check proves nothing")
			}
		})
	}
}

// TestPPRBatchWidth1Converges: the batched PPR driver tracks convergence per
// column (live &= ActiveColumns()), and a one-column block keeps no column
// masks — its one column is live while any vertex is active. It must settle
// on the scalar driver's superstep, under the tolerance and not the cap.
func TestPPRBatchWidth1Converges(t *testing.T) {
	ctx := context.Background()
	g, err := NewPersonalizedPageRankGraph(gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 5}), 4)
	if err != nil {
		t.Fatal(err)
	}
	const iterCap = 200
	var sources []uint32
	for v := uint32(0); len(sources) < 2; v += 37 {
		if g.OutDegree(v) > 1 {
			sources = append(sources, v)
		}
	}
	for _, src := range sources {
		opts := []Option{WithIterations(iterCap), WithTolerance(1e-6)}
		want, ws, err := RunPersonalizedPageRank(ctx, g, []uint32{src}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, gs, err := RunPersonalizedPageRankBatch(ctx, g, []uint32{src}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, "ppr k=1 vs scalar", want, got[0])
		if ws.Reason != graphmat.Converged || ws.Iterations < 2 || ws.Iterations >= iterCap {
			t.Fatalf("source %d: the scalar run must converge under the cap to prove anything: %+v", src, ws)
		}
		gs.Sched, ws.Sched = graphmat.SchedStats{}, graphmat.SchedStats{}
		if gs != ws {
			t.Fatalf("source %d: batch k=1 stats\n got %+v\nwant %+v", src, gs, ws)
		}
	}
}
