package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables: BENCHMARK.json is the contract the driver
// reads; metrics.go is what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from metrics.go", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	check := func(kind metricKind, got []contractMetric, bounded bool) {
		var want []metricDef
		for _, d := range metricDefs {
			if d.Kind == kind {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("kind %d: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q breaks the contract's character rules", m.Name, m.Unit)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check(endToEnd, bf.EndToEnd, true)
	check(perLayer, bf.PerLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's limits", len(bf.EndToEnd), len(bf.PerLayer))
	}
	var hasSetup bool
	for _, m := range bf.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}
