package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d, want 200", v.Len())
	}
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 199} {
		if v.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if !v.Get(63) || !v.Get(65) {
		t.Error("Clear(64) disturbed neighboring bits")
	}
}

func TestCountAndAny(t *testing.T) {
	v := New(1000)
	if v.Any() {
		t.Error("empty vector reports Any")
	}
	if v.Count() != 0 {
		t.Errorf("empty Count = %d", v.Count())
	}
	idx := []uint32{3, 64, 999, 500, 64} // one duplicate
	for _, i := range idx {
		v.Set(i)
	}
	if got := v.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if !v.Any() {
		t.Error("Any = false after Set")
	}
	v.Reset()
	if v.Count() != 0 || v.Any() {
		t.Error("Reset did not clear")
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v := New(n)
		if n > 2 {
			v.Set(2) // SetAll overwrites, it does not toggle
		}
		v.SetAll()
		if got := v.Count(); got != n {
			t.Errorf("n=%d: Count = %d after SetAll", n, got)
		}
		if v.Any() != (n > 0) {
			t.Errorf("n=%d: Any = %v after SetAll", n, v.Any())
		}
		// No bit at or beyond n, in the tail word or anywhere else.
		for wi, w := range v.Words() {
			for b := 0; b < 64; b++ {
				if i := wi*64 + b; (w>>b)&1 != 0 && i >= n {
					t.Errorf("n=%d: bit %d set beyond Len", n, i)
				}
			}
		}
		next := uint32(0)
		v.IterateRange(0, uint32(n)+128, func(i uint32) {
			if i != next {
				t.Fatalf("n=%d: IterateRange visited %d, want %d", n, i, next)
			}
			next++
		})
		if int(next) != n {
			t.Errorf("n=%d: IterateRange visited [0, %d), want [0, %d)", n, next, n)
		}
	}
}

func TestIterateOrder(t *testing.T) {
	v := New(300)
	want := []uint32{0, 5, 63, 64, 100, 255, 299}
	for _, i := range want {
		v.Set(i)
	}
	var got []uint32
	v.Iterate(func(i uint32) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("Iterate visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Iterate[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIterateRange(t *testing.T) {
	v := New(256)
	for i := uint32(0); i < 256; i++ {
		v.Set(i)
	}
	cases := []struct {
		lo, hi uint32
		want   int
	}{
		{0, 256, 256},
		{0, 0, 0},
		{10, 10, 0},
		{5, 6, 1},
		{63, 65, 2},
		{64, 128, 64},
		{1, 255, 254},
		{200, 256, 56},
	}
	for _, c := range cases {
		got := 0
		prev := int64(-1)
		v.IterateRange(c.lo, c.hi, func(i uint32) {
			if int64(i) <= prev {
				t.Errorf("IterateRange(%d,%d) out of order: %d after %d", c.lo, c.hi, i, prev)
			}
			if i < c.lo || i >= c.hi {
				t.Errorf("IterateRange(%d,%d) visited out-of-range bit %d", c.lo, c.hi, i)
			}
			prev = int64(i)
			got++
		})
		if got != c.want {
			t.Errorf("IterateRange(%d,%d) visited %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestSetAtomicDeduplicates(t *testing.T) {
	v := New(64)
	if !v.SetAtomic(7) {
		t.Error("first SetAtomic returned false")
	}
	if v.SetAtomic(7) {
		t.Error("second SetAtomic returned true")
	}
	if !v.Get(7) {
		t.Error("bit not set")
	}
}

func TestSetAtomicConcurrent(t *testing.T) {
	const n = 4096
	v := New(n)
	done := make(chan int)
	workers := 8
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			wins := 0
			for i := 0; i < n; i++ {
				if v.SetAtomic(uint32(r.Intn(n))) {
					wins++
				}
			}
			done <- wins
		}(int64(w))
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	if got := v.Count(); got != total {
		t.Errorf("Count = %d but successful SetAtomic calls = %d", got, total)
	}
}

// Property: Count equals the size of the set of indices inserted.
func TestQuickCountMatchesSet(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(1 << 16)
		seen := make(map[uint16]bool)
		for _, i := range raw {
			v.Set(uint32(i))
			seen[i] = true
		}
		return v.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Iterate visits exactly the set bits, in ascending order.
func TestQuickIterateMatchesGet(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(1 << 16)
		for _, i := range raw {
			v.Set(uint32(i))
		}
		prev := int64(-1)
		ok := true
		v.Iterate(func(i uint32) {
			if !v.Get(i) || int64(i) <= prev {
				ok = false
			}
			prev = int64(i)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: IterateRange(lo,hi) == filter(Iterate, lo<=i<hi).
func TestQuickIterateRange(t *testing.T) {
	f := func(raw []uint16, lo, hi uint16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		v := New(1 << 16)
		for _, i := range raw {
			v.Set(uint32(i))
		}
		var want []uint32
		v.Iterate(func(i uint32) {
			if i >= uint32(lo) && i < uint32(hi) {
				want = append(want, i)
			}
		})
		var got []uint32
		v.IterateRange(uint32(lo), uint32(hi), func(i uint32) { got = append(got, i) })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet(b *testing.B) {
	v := New(1 << 20)
	for i := 0; i < b.N; i++ {
		v.Set(uint32(i) & (1<<20 - 1))
	}
}

func BenchmarkIterateSparse(b *testing.B) {
	v := New(1 << 20)
	for i := uint32(0); i < 1<<20; i += 1024 {
		v.Set(i)
	}
	b.ResetTimer()
	sum := uint32(0)
	for i := 0; i < b.N; i++ {
		v.Iterate(func(j uint32) { sum += j })
	}
	_ = sum
}
