package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig is a tiny-size configuration rooted at the repository.
func smokeConfig(t *testing.T, trace bool) *config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		root: root, outDir: t.TempDir(), tmpDir: t.TempDir(),
		seed: 1, seconds: 1, trace: trace, smoke: true, sz: smokeSizes,
	}
}

// contractLine is the shape of the last stdout line.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lastLines(t *testing.T, out *bytes.Buffer) []contractLine {
	t.Helper()
	var lines []contractLine
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var cl contractLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cl); err != nil {
			t.Fatalf("result line is not the contract's object: %v\n%s", err, l)
		}
		lines = append(lines, cl)
	}
	return lines
}

// TestSmokeAllWorkloads drives every workload, untraced and traced, at the
// smoke sizes — a live graphmatd child included — so the harness cannot rot.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs graphmatd")
	}
	for _, trace := range []bool{false, true} {
		c := smokeConfig(t, trace)
		var out bytes.Buffer
		if code := runWorkloads(context.Background(), c, workloads, "", &out); code != 0 {
			t.Fatalf("trace=%v: exit code %d", trace, code)
		}
		lines := lastLines(t, &out)
		if len(lines) != len(workloads) {
			t.Fatalf("trace=%v: %d result lines for %d workloads", trace, len(lines), len(workloads))
		}
		for i, cl := range lines {
			if !cl.Correct || cl.Failed != 0 || cl.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", workloads[i].name, trace, cl.Correct, cl.Attempted, cl.Failed)
			}
			for _, d := range metricDefs {
				m, ok := cl.Metrics[d.Name]
				if ok != d.gated(trace) {
					t.Errorf("%s trace=%v: metric %s present=%v, want %v", workloads[i].name, trace, d.Name, ok, d.gated(trace))
				}
				if ok && (m.Unit != d.Unit || (d.Kind == endToEnd && !(m.Value > 0))) {
					t.Errorf("%s trace=%v: metric %s = %v %s", workloads[i].name, trace, d.Name, m.Value, m.Unit)
				}
			}
		}
		if trace {
			for _, w := range workloads {
				data, err := os.ReadFile(filepath.Join(c.tmpDir, "trace_"+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []struct {
						Name string `json:"name"`
						Cat  string `json:"cat"`
						Ph   string `json:"ph"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s: span file unreadable or empty: %v", w.name, err)
				}
			}
		}
	}
}

// TestCountsRepeat: the traced run's count metrics are identical across two
// runs of one seed.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced workloads")
	}
	run := func() map[string]metric {
		var out bytes.Buffer
		if code := runWorkloads(context.Background(), smokeConfig(t, true), workloads[1:2], "", &out); code != 0 {
			t.Fatalf("exit code %d", code)
		}
		return lastLines(t, &out)[0].Metrics
	}
	a, b := run(), run()
	for _, d := range metricDefs {
		// Steals and wakes are scheduling outcomes, counted but not exact.
		if d.Kind == perLayer && d.Unit == "count" && d.Name != "sched.steals" && d.Name != "sched.wakes" {
			if a[d.Name].Value != b[d.Name].Value {
				t.Errorf("%s: %v then %v", d.Name, a[d.Name].Value, b[d.Name].Value)
			}
		}
	}
}

// TestOracleFailureReachesExitCode: a corrupted result fails its oracle
// check, is counted, flips correct, and makes the exit code non-zero.
func TestOracleFailureReachesExitCode(t *testing.T) {
	c := smokeConfig(t, false)
	c.tamper = func(values []float64) { values[len(values)/2] *= 1.0001 }
	var out bytes.Buffer
	code := runWorkloads(context.Background(), c, workloads[:1], "", &out)
	cl := lastLines(t, &out)[0]
	if code != 1 || cl.Correct || cl.Failed != 1 {
		t.Errorf("exit code %d, correct=%v, failed=%d; want 1, false, 1", code, cl.Correct, cl.Failed)
	}
}
