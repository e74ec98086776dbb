package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// -compare a.ndjson b.ndjson: one row per (workload, metric) present on both
// sides, with each side's median and quartiles over its runs and a verdict
// from the metric's own direction and bound. Bounds of the contract's
// end-to-end metrics are read from BENCHMARK.json; detail metrics use the
// bounds in metrics.go; per-layer metrics have none and are listed only.

// verdict values.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictInfo       = "-"          // no bound: reported, not judged
)

// judge applies a metric's direction and bound to the two samples. a is the
// baseline (parent), b the candidate (change).
func judge(a, b []float64, lowerIsBetter bool, bound float64) string {
	if bound <= 0 {
		return verdictInfo
	}
	if (len(a) >= 2 && spread(a) > bound) || (len(b) >= 2 && spread(b) > bound) {
		return verdictUnresolved
	}
	if worseBy(median(a), median(b), lowerIsBetter) > bound {
		return verdictWorse
	}
	return verdictOK
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads every run record of an NDJSON results file.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samplesOf groups a file's values by workload and metric name.
func samplesOf(recs []result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, ms := range []map[string]metric{r.Metrics, r.Detail} {
			for name, m := range ms {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		out[r.Workload]["failed_frac"] = append(out[r.Workload]["failed_frac"], float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	return out
}

// compareFiles prints the comparison and returns the exit code: 1 if any
// metric is worse or any run on either side failed an operation, else 0.
func compareFiles(w io.Writer, benchmarkJSON, pathA, pathB string) (int, error) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return 0, err
	}
	bounds := map[string]contractMetric{}
	for _, d := range metricDefs {
		bounds[d.Name] = contractMetric{d.Name, d.Unit, d.Better, d.Bound}
	}
	for _, m := range bf.EndToEnd { // the contract file is the authority
		bounds[m.Name] = m
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	a, b := samplesOf(recsA), samplesOf(recsB)

	code := 0
	fmt.Fprintf(w, "%-13s %-32s %-9s %4s %12s %12s %12s   %4s %12s %12s %12s  %8s  %s\n",
		"workload", "metric", "unit", "nA", "medianA", "q1A", "q3A", "nB", "medianB", "q1B", "q3B", "change", "verdict")
	for _, wl := range workloads {
		names := make([]string, 0, len(a[wl.name]))
		for name := range a[wl.name] {
			if _, both := b[wl.name][name]; both {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			xa, xb := a[wl.name][name], b[wl.name][name]
			def := bounds[name]
			lower := def.Better != "higher"
			v := judge(xa, xb, lower, def.Bound)
			if name == "failed_frac" {
				v = verdictOK
				if slices.Max(xa) > 0 || slices.Max(xb) > 0 { // any failed operation in any run
					v = verdictWorse
				}
			}
			if v == verdictWorse {
				code = 1
			}
			q1a, q3a := quartiles(xa)
			q1b, q3b := quartiles(xb)
			change := worseBy(median(xa), median(xb), lower)
			fmt.Fprintf(w, "%-13s %-32s %-9s %4d %12.6g %12.6g %12.6g   %4d %12.6g %12.6g %12.6g  %+7.1f%%  %s\n",
				wl.name, name, def.Unit, len(xa), median(xa), q1a, q3a, len(xb), median(xb), q1b, q3b, pct(change), v)
		}
	}
	fmt.Fprintln(w, "change is how much worse B's median is than A's, in the metric's own direction (negative: better)")
	return code, nil
}

func pct(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return 100 * x
}
