package sparse

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestVectorBasic(t *testing.T) {
	v := NewVector[float64](100)
	if v.Len() != 100 || v.NNZ() != 0 {
		t.Fatal("new vector not empty")
	}
	v.Set(5, 2.5)
	v.Set(99, -1)
	if !v.Has(5) || !v.Has(99) || v.Has(6) {
		t.Error("Has wrong")
	}
	if v.Get(5) != 2.5 {
		t.Error("Get wrong")
	}
	if got, ok := v.GetChecked(6); ok || got != 0 {
		t.Error("GetChecked on absent index")
	}
	if got, ok := v.GetChecked(99); !ok || got != -1 {
		t.Error("GetChecked on present index")
	}
	v.Clear(5)
	if v.Has(5) {
		t.Error("Clear failed")
	}
	if v.NNZ() != 1 {
		t.Errorf("NNZ = %d", v.NNZ())
	}
	v.Reset()
	if v.NNZ() != 0 {
		t.Error("Reset failed")
	}
}

func TestVectorIterate(t *testing.T) {
	v := NewVector[int](256)
	idx := []uint32{0, 63, 64, 200, 255}
	for _, i := range idx {
		v.Set(i, int(i)*2)
	}
	var got []uint32
	v.Iterate(func(i uint32, val int) {
		if val != int(i)*2 {
			t.Errorf("value at %d = %d", i, val)
		}
		got = append(got, i)
	})
	if len(got) != len(idx) {
		t.Fatalf("visited %d, want %d", len(got), len(idx))
	}
	count := 0
	v.IterateRange(63, 201, func(i uint32, _ int) {
		if i < 63 || i >= 201 {
			t.Errorf("range violated: %d", i)
		}
		count++
	})
	if count != 3 {
		t.Errorf("IterateRange visited %d, want 3", count)
	}
}

func TestSortedVectorBasic(t *testing.T) {
	var v SortedVector[int]
	if v.NNZ() != 0 {
		t.Fatal("new vector not empty")
	}
	v.Append(3, 30)
	v.Append(50, 500)
	v.Append(99, 990)
	if !v.Has(3) || !v.Has(50) || !v.Has(99) || v.Has(4) || v.Has(0) {
		t.Error("Has wrong")
	}
	if v.Get(50) != 500 || v.Get(4) != 0 {
		t.Error("Get wrong")
	}
	if v.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", v.NNZ())
	}
	v.Reset()
	if v.NNZ() != 0 || v.Has(3) {
		t.Error("Reset failed")
	}
}

// Property: both representations agree on Has/Get for the same contents.
func TestQuickVectorRepresentationsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 512
		idxSet := make(map[uint32]int)
		for i := 0; i < 64; i++ {
			idxSet[uint32(r.Intn(n))] = r.Intn(1000)
		}
		var keys []uint32
		for k := range idxSet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		bv := NewVector[int](n)
		var sv SortedVector[int]
		for _, k := range keys {
			bv.Set(k, idxSet[k])
			sv.Append(k, idxSet[k])
		}
		for i := uint32(0); i < uint32(n); i++ {
			if bv.Has(i) != sv.Has(i) {
				return false
			}
			if bv.Has(i) && bv.Get(i) != sv.Get(i) {
				return false
			}
		}
		return bv.NNZ() == sv.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
