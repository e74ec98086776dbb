package algorithms

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"graphmat"
	"graphmat/internal/gen"
)

// TestStoreKeys pins every registered algorithm's store key: the nine rows
// fall into four keys, which is how many stores a serving layer holds for a
// graph warmed with all of them.
func TestStoreKeys(t *testing.T) {
	want := map[string]string{
		"bfs":          "symmetric",
		"components":   "symmetric",
		"hits":         "directed-both",
		"pagerank":     "directed",
		"ppr":          "directed",
		"reachability": "directed",
		"sssp":         "directed",
		"triangles":    "upper",
		"widest":       "directed",
	}
	got := map[string]string{}
	keys := map[StoreKey]bool{}
	for _, spec := range Specs() {
		got[spec.Name] = spec.Key.String()
		keys[spec.Key] = true
	}
	if !maps.Equal(got, want) {
		t.Fatalf("store keys = %v, want %v", got, want)
	}
	if len(keys) != 4 {
		t.Fatalf("%d distinct keys, want 4", len(keys))
	}
}

// TestBindSharesTheStore binds every algorithm to the store of an instance
// of another algorithm of its key. Updates applied to that store reach the
// bound instance — same store, same epoch — and its answers stay
// bit-identical to a solo Build of the same raw edges at the same epoch.
// Binding across keys fails.
func TestBindSharesTheStore(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 4, Seed: 31, MaxWeight: 9})
	byKey := map[StoreKey][]Spec{}
	for _, spec := range Specs() {
		byKey[spec.Key] = append(byKey[spec.Key], spec)
	}
	master := adj.Clone()
	graphmat.NormalizeAdjacency(master, 1)
	batches := updateBatches(adj.NRows)
	final := master
	for _, b := range batches {
		var err error
		if final, err = graphmat.ApplyToAdjacency(final, b); err != nil {
			t.Fatal(err)
		}
	}
	p := Params{Source: 1, Iterations: 8, Threads: 2}

	for key, specs := range byKey {
		owner, err := specs[0].Build(adj.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		bound := make([]Instance, len(specs))
		for i, spec := range specs {
			if bound[i], err = spec.Bind(owner.Store()); err != nil {
				t.Fatalf("%s: binding to %s's store: %v", spec.Name, specs[0].Name, err)
			}
		}
		raw := master
		for _, b := range batches {
			if raw, err = graphmat.ApplyToAdjacency(raw, b); err != nil {
				t.Fatal(err)
			}
			if _, err := owner.Store().ApplyUpdates(b, NewRawEdgeLookup(raw)); err != nil {
				t.Fatal(err)
			}
		}
		for i, spec := range specs {
			if got := bound[i].Store().Epoch(); got != uint64(len(batches)) {
				t.Errorf("%s (%s): bound epoch %d, want %d", spec.Name, key, got, len(batches))
			}
			solo, err := spec.Build(final.Clone(), 4)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := solo.Run(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bound[i].Run(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("%s bound to %s", spec.Name, specs[0].Name), ref, res)
			if res.Epoch != uint64(len(batches)) {
				t.Errorf("%s: result epoch %d, want %d", spec.Name, res.Epoch, len(batches))
			}
		}
		if st := owner.Store().Stats(); st.Pinned != 0 || st.Batches != int64(len(batches)) {
			t.Errorf("%s: store after the runs = %+v", key, st)
		}
	}

	keys := slices.Collect(maps.Keys(byKey))
	other, err := byKey[keys[1]][0].Build(adj.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := byKey[keys[0]][0].Bind(other.Store()); err == nil || !strings.Contains(err.Error(), keys[1].String()) {
		t.Errorf("binding a %s algorithm to a %s store: err = %v", keys[0], keys[1], err)
	}
}

// TestRunBatchRejectsAnotherKeysPin hands every batchable algorithm a pin of
// a store of another key: the run must fail, naming the store it expected,
// and leave both stores unpinned once the caller releases.
func TestRunBatchRejectsAnotherKeysPin(t *testing.T) {
	adj := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 5, MaxWeight: 9})
	stores := map[StoreKey]*Store{}
	for _, spec := range Specs() {
		if stores[spec.Key] != nil {
			continue
		}
		st, err := NewStore(spec.Key, adj.Clone(), 2)
		if err != nil {
			t.Fatal(err)
		}
		stores[spec.Key] = st
	}
	for _, spec := range Specs() {
		if !spec.Batchable {
			continue
		}
		inst, err := spec.Bind(stores[spec.Key])
		if err != nil {
			t.Fatal(err)
		}
		for key, other := range stores {
			if key == spec.Key {
				continue
			}
			pin := other.Acquire()
			_, err := inst.RunBatch(context.Background(), pin, Params{Sources: []uint32{0, 1}}, nil)
			pin.Release()
			if err == nil || !strings.Contains(err.Error(), spec.Key.String()) {
				t.Errorf("%s given a pin of the %s store: err = %v", spec.Name, key, err)
			}
		}
	}
	for key, st := range stores {
		if pinned := st.Stats().Pinned; pinned != 0 {
			t.Errorf("%s store: %d pins left", key, pinned)
		}
	}
}
