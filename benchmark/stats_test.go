package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 100}, {90, 90}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates at the ends
		{[]float64{10, 20, 30}, 10, 30},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndWorseBy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := worseBy(100, 112, true); !near(got, 0.12) {
		t.Errorf("lower-is-better 100->112 = %v, want +0.12", got)
	}
	if got := worseBy(100, 112, false); !near(got, -0.12) {
		t.Errorf("higher-is-better 100->112 = %v, want -0.12", got)
	}
	if got := geomean(2, 8); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	noisy := []float64{80, 100, 120, 90, 130, 70}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", tight(100), tight(100), true, 0.10, verdictOK},
		{"within bound", tight(100), tight(108), true, 0.10, verdictOK},
		{"beyond bound", tight(100), tight(112), true, 0.10, verdictWorse},
		{"better is ok", tight(100), tight(50), true, 0.10, verdictOK},
		{"throughput down", tight(100), tight(85), false, 0.10, verdictWorse},
		{"throughput up", tight(100), tight(130), false, 0.10, verdictOK},
		{"spread wider than bound", noisy, tight(100), true, 0.10, verdictUnresolved},
		{"no bound", tight(100), tight(300), true, 0, verdictInfo},
		{"single runs", []float64{100}, []float64{115}, true, 0.10, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}
