package algorithms

import (
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

// TestBindSharesTheStore binds every algorithm to an instance of another
// algorithm of its key. Updates applied through the owner reach the bound
// instance — same store, same epoch — and its answers stay bit-identical to
// a solo Build of the same raw edges at the same epoch. Binding across keys
// or to an instance the registry did not make fails.
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
			if bound[i], err = spec.Bind(owner); err != nil {
				t.Fatalf("%s: binding to %s's store: %v", spec.Name, specs[0].Name, err)
			}
		}
		raw := master
		for _, b := range batches {
			if raw, err = graphmat.ApplyToAdjacency(raw, b); err != nil {
				t.Fatal(err)
			}
			if _, err := owner.ApplyUpdates(b, NewRawEdgeLookup(raw)); err != nil {
				t.Fatal(err)
			}
		}
		for i, spec := range specs {
			if got := bound[i].Epoch(); got != uint64(len(batches)) {
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
		if st := owner.StoreStats(); st.Pinned != 0 || st.Batches != int64(len(batches)) {
			t.Errorf("%s: store after the runs = %+v", key, st)
		}
	}

	keys := slices.Collect(maps.Keys(byKey))
	other, err := byKey[keys[1]][0].Build(adj.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := byKey[keys[0]][0].Bind(other); err == nil || !strings.Contains(err.Error(), keys[1].String()) {
		t.Errorf("binding a %s algorithm to a %s store: err = %v", keys[0], keys[1], err)
	}
	if _, err := byKey[keys[0]][0].Bind(foreignInstance{other}); err == nil {
		t.Error("binding to an instance the registry did not make succeeded")
	}
}

// foreignInstance is an Instance the registry did not make.
type foreignInstance struct{ Instance }
