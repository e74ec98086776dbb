package algorithms

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// The registry conformance suite: every contract the Instance interface
// states, checked for every registered Spec. Nothing here names an
// algorithm — parameters are derived from each spec's declared schema — so
// a new table row is one more input to every check below, not one more
// hand-written case.

// declares reports whether the spec's schema lists the named parameter.
func declares(s Spec, name string) bool {
	return slices.ContainsFunc(s.Params, func(p ParamSpec) bool { return p.Name == name })
}

// conformanceParams are runnable parameters for any spec: a start vertex if
// it takes one, a short iteration cap if it takes one.
func conformanceParams(s Spec) Params {
	var p Params
	if declares(s, "source") {
		p.Source = 2
	}
	if declares(s, "iters") {
		p.Iterations = 6
	}
	return p
}

func TestRegistryConformance(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 42, MaxWeight: 10})
	ctx := context.Background()
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(adj.Clone(), 4)
			if err != nil {
				t.Fatal(err)
			}
			n := inst.Store().NumVertices()
			p := conformanceParams(spec)
			want, err := inst.Run(p, nil)
			if err != nil {
				t.Fatal(err)
			}

			t.Run("batchable iff RunBatch is supported", func(t *testing.T) {
				pin := inst.Store().Acquire()
				defer pin.Release()
				_, errPinned := inst.RunBatch(ctx, pin, p, nil)
				batch, err := inst.RunBatch(ctx, nil, p, nil)
				for _, e := range []error{err, errPinned} {
					if errors.Is(e, ErrBatchUnsupported) == spec.Batchable {
						t.Fatalf("Batchable=%v but RunBatch (unpinned, pinned) error = %v", spec.Batchable, e)
					}
				}
				if !spec.Batchable {
					return
				}
				if err != nil || errPinned != nil {
					t.Fatalf("RunBatch: %v; on a pin: %v", err, errPinned)
				}
				// The single-source fallback: every Run-able parameter set
				// is RunBatch-able. (ppr's batch is one vector per source
				// where its scalar run is one vector per set; with one
				// source the two coincide.)
				if len(batch.Sources) != 1 || batch.Sources[0] != p.Source || len(batch.Values) != 1 {
					t.Fatalf("batch of one: sources %v, %d series", batch.Sources, len(batch.Values))
				}
				sameSeries(t, "batch of one vs scalar run", want.Values, batch.Values[0])
			})

			t.Run("foreign scratch and pin are errors", func(t *testing.T) {
				if _, err := inst.Run(p, new(int)); err == nil {
					t.Error("Run accepted scratch of a foreign type")
				}
				other, err := NewStore(spec.Key, adj.Clone(), 4)
				if err != nil {
					t.Fatal(err)
				}
				pin := other.Acquire()
				defer pin.Release()
				if _, err := inst.RunBatch(ctx, pin, p, nil); err == nil {
					t.Error("RunBatch accepted a pin of another store")
				}
			})

			t.Run("source parameters are range-checked", func(t *testing.T) {
				if !declares(spec, "source") {
					// Nothing to check, and a stray Source must be inert.
					got, err := inst.Run(Params{Source: n, Iterations: p.Iterations}, nil)
					if err != nil {
						t.Fatalf("algorithm without a source parameter rejected Source: %v", err)
					}
					sameResult(t, "stray source", want, got)
					return
				}
				bad := []Params{{Source: n}}
				if declares(spec, "sources") {
					bad = append(bad, Params{Sources: []uint32{n}}, Params{Source: 1, Sources: []uint32{n}})
				}
				for _, bp := range bad {
					bp.Iterations = p.Iterations
					if _, err := inst.Run(bp, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
						t.Errorf("Run(%+v) error = %v, want out of range", bp, err)
					}
					if !spec.Batchable {
						continue
					}
					if _, err := inst.RunBatch(ctx, nil, bp, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
						t.Errorf("RunBatch(%+v) error = %v, want out of range", bp, err)
					}
				}
			})

			t.Run("a scalar run honours sources", func(t *testing.T) {
				if !declares(spec, "sources") {
					return
				}
				// One element is the source, wherever Source points.
				got, err := inst.Run(Params{Source: 0, Sources: []uint32{p.Source}, Iterations: p.Iterations}, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "sources:[s] vs source:s", want, got)
				// A longer list is never silently cut down to one vertex:
				// either the algorithm rejects it, naming RunBatch, or it has
				// set semantics and the answer reflects the whole set.
				multi, err := inst.Run(Params{Sources: []uint32{p.Source, 5}, Iterations: p.Iterations}, nil)
				if err != nil {
					if !strings.Contains(err.Error(), "RunBatch") {
						t.Fatalf("multi-source scalar run error = %v, want a pointer at RunBatch", err)
					}
					return
				}
				if slices.Equal(multi.Values, want.Values) {
					t.Fatal("multi-element sources answered as if only the first were given")
				}
			})

			t.Run("a canceled run returns the partial result and its reason", func(t *testing.T) {
				dead, cancel := context.WithCancel(ctx)
				cancel()
				got, err := inst.RunContext(dead, p, nil, nil)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error = %v, want context.Canceled", err)
				}
				if got.Stats.Reason != graphmat.Canceled {
					t.Fatalf("Stats.Reason = %v, want Canceled", got.Stats.Reason)
				}
				if len(got.Values) != len(want.Values) || len(got.Series) != len(want.Series) || (got.Count == nil) != (want.Count == nil) {
					t.Fatalf("partial result lost its shape: %d values, %d series, count %v", len(got.Values), len(got.Series), got.Count)
				}
				if got.Epoch != want.Epoch {
					t.Fatalf("partial result epoch %d, want %d", got.Epoch, want.Epoch)
				}
				if !spec.Batchable {
					return
				}
				bp := p
				bp.Sources = []uint32{p.Source, 1}
				batch, err := inst.RunBatch(dead, nil, bp, nil)
				if !errors.Is(err, context.Canceled) || batch.Stats.Reason != graphmat.Canceled {
					t.Fatalf("batch: error = %v, reason = %v", err, batch.Stats.Reason)
				}
				if len(batch.Values) != len(bp.Sources) {
					t.Fatalf("partial batch lost its shape: %d series for %d sources", len(batch.Values), len(bp.Sources))
				}
				for i, series := range batch.Values {
					if len(series) != int(n) {
						t.Fatalf("partial batch series %d has %d values, want %d", i, len(series), n)
					}
				}
			})

			t.Run("Open is bit-identical to Build", func(t *testing.T) {
				img, err := inst.Store().SnapImage(7)
				if err != nil {
					t.Fatal(err)
				}
				st, err := OpenStore(spec.Key, img)
				if err != nil {
					t.Fatal(err)
				}
				opened, err := spec.Bind(st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := opened.Run(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "opened vs built", want, got)
			})
		})
	}
}

// TestParseParamsStableError: keys are visited in sorted order, so a body
// with several bad keys reports the same one on every call — map iteration
// order must not leak into the API.
func TestParseParamsStableError(t *testing.T) {
	raw := map[string]any{"zeta": 1, "alpha": 1, "mid": 1, "source": "x", "bogus": 1}
	for _, spec := range Specs() {
		var first string
		for i := 0; i < 50; i++ {
			_, err := spec.ParseParams(raw)
			if err == nil {
				t.Fatalf("%s accepted %v", spec.Name, raw)
			}
			if first == "" {
				first = err.Error()
				if !strings.Contains(first, `"alpha"`) {
					t.Fatalf("%s: first error = %q, want the alphabetically first bad key", spec.Name, first)
				}
			}
			if err.Error() != first {
				t.Fatalf("%s: error changed between calls: %q then %q", spec.Name, first, err)
			}
		}
	}
}
