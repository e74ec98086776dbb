package gen

import (
	"testing"
)

func TestUpdatesGenerator(t *testing.T) {
	base := RMAT(RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 3, MaxWeight: 10})
	nnzBefore := len(base.Entries)
	ups := Updates(base, UpdateOptions{Count: 500, DeleteFraction: 0.4, MaxWeight: 9, Seed: 1})
	if len(ups) != 500 {
		t.Fatalf("got %d updates, want 500", len(ups))
	}
	if len(base.Entries) != nnzBefore {
		t.Fatalf("generator mutated the base graph")
	}
	baseEdges := map[[2]uint32]bool{}
	for _, e := range base.Entries {
		baseEdges[[2]uint32{e.Row, e.Col}] = true
	}
	inserted := map[[2]uint32]bool{}
	dels, loops := 0, 0
	for _, u := range ups {
		if u.Src >= base.NRows || u.Dst >= base.NCols {
			t.Fatalf("update (%d,%d) outside %dx%d base", u.Src, u.Dst, base.NRows, base.NCols)
		}
		if u.Del {
			dels++
			// Deletes must target real edges — base edges or ones the
			// stream itself inserted — so the stream exercises live
			// columns instead of no-op paths.
			if !baseEdges[[2]uint32{u.Src, u.Dst}] && !inserted[[2]uint32{u.Src, u.Dst}] {
				t.Fatalf("delete (%d,%d) references no known edge", u.Src, u.Dst)
			}
		} else {
			if u.Weight < 1 || u.Weight > 9 {
				t.Fatalf("insert weight %v outside [1,9]", u.Weight)
			}
			if u.Src == u.Dst {
				loops++
			}
			inserted[[2]uint32{u.Src, u.Dst}] = true
		}
	}
	if dels == 0 || dels == len(ups) {
		t.Fatalf("delete mix degenerate: %d of %d", dels, len(ups))
	}
	if float64(dels) < 0.25*float64(len(ups)) || float64(dels) > 0.55*float64(len(ups)) {
		t.Errorf("delete fraction %d/%d far from requested 0.4", dels, len(ups))
	}
	if loops == 0 {
		t.Errorf("adversarial slice emitted no self-loops in 500 updates")
	}

	// Determinism: same seed, same stream; different seed, different stream.
	again := Updates(base, UpdateOptions{Count: 500, DeleteFraction: 0.4, MaxWeight: 9, Seed: 1})
	for i := range ups {
		if ups[i] != again[i] {
			t.Fatalf("stream not deterministic at %d: %+v vs %+v", i, ups[i], again[i])
		}
	}
	other := Updates(base, UpdateOptions{Count: 500, DeleteFraction: 0.4, MaxWeight: 9, Seed: 2})
	same := 0
	for i := range ups {
		if ups[i] == other[i] {
			same++
		}
	}
	if same == len(ups) {
		t.Fatal("different seeds produced identical streams")
	}
}
