package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRates(t *testing.T) {
	s := Set{WorkItems: 100, StreamedBytes: 400, WallSeconds: 2}
	if s.ReadBandwidth() != 200 {
		t.Errorf("ReadBandwidth = %v", s.ReadBandwidth())
	}
	if s.WorkRate() != 50 {
		t.Errorf("WorkRate = %v", s.WorkRate())
	}
	var zero Set
	if zero.ReadBandwidth() != 0 || zero.WorkRate() != 0 {
		t.Error("zero WallSeconds must not divide by zero")
	}
}

func TestRatiosSelfIsOne(t *testing.T) {
	s := Set{WorkItems: 7, RandomTouches: 11, StreamedBytes: 13, WallSeconds: 0.3}
	r := s.Ratios(s)
	for i, x := range r {
		if math.Abs(x-1) > 1e-12 {
			t.Errorf("axis %s self-ratio = %v", AxisNames[i], x)
		}
	}
}

func TestRatiosDirection(t *testing.T) {
	base := Set{WorkItems: 100, RandomTouches: 100, StreamedBytes: 1000, WallSeconds: 1}
	slow := Set{WorkItems: 400, RandomTouches: 300, StreamedBytes: 1000, WallSeconds: 4}
	r := slow.Ratios(base)
	if r[0] != 4 { // 4x instructions
		t.Errorf("instructions ratio = %v", r[0])
	}
	if r[1] != 3 { // 3x stalls
		t.Errorf("stall ratio = %v", r[1])
	}
	if r[2] != 0.25 { // same bytes over 4x the time
		t.Errorf("bandwidth ratio = %v", r[2])
	}
	if r[3] != 1 { // 4x work over 4x time
		t.Errorf("IPC ratio = %v", r[3])
	}
}

func TestRatiosZeroBase(t *testing.T) {
	s := Set{WorkItems: 5, WallSeconds: 1}
	r := s.Ratios(Set{})
	for i, x := range r {
		if x != 0 {
			t.Errorf("axis %d against zero base = %v, want 0", i, x)
		}
	}
}

// Property: scaling a set's counts and time by the same factor leaves the
// IPC proxy unchanged and scales bandwidth by 1.
func TestQuickScaleInvariance(t *testing.T) {
	f := func(wRaw, bRaw uint16, kRaw uint8) bool {
		w, b := int64(wRaw)+1, int64(bRaw)+1
		k := int64(kRaw%7) + 2
		s1 := Set{WorkItems: w, StreamedBytes: b, WallSeconds: 1}
		s2 := Set{WorkItems: w * k, StreamedBytes: b * k, WallSeconds: float64(k)}
		return math.Abs(s1.WorkRate()-s2.WorkRate()) < 1e-9 &&
			math.Abs(s1.ReadBandwidth()-s2.ReadBandwidth()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
