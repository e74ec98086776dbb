package main

import (
	"fmt"
	"io"
)

// The metric tables. Names are normative: later changes state their claims
// in them. endToEnd and perLayer must agree with BENCHMARK.json (a test
// checks it); detail metrics are reported and comparable but not part of the
// contract's result line.

type metricKind int

const (
	endToEnd metricKind = iota // untraced run, gated by a bound
	perLayer                   // traced run, no bound
	detail                     // either run, reported only
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median the metric may worsen by
	Kind   metricKind
}

// gated reports whether the metric belongs in the contract line of a run
// with the given trace mode.
func (d metricDef) gated(trace bool) bool {
	return (d.Kind == endToEnd && !trace) || (d.Kind == perLayer && trace)
}

func lo(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Kind: perLayer}
}
func hi(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "higher", Kind: perLayer}
}

var metricDefs = []metricDef{
	// End to end. Every workload reports every one of these (the contract
	// requires it), so the two latency slots are named by role; the workload
	// table in README.md says which operation fills each.
	{"setup_s", "s", "lower", 0.25, endToEnd},
	{"primary_ms", "ms", "lower", 0.25, endToEnd},
	{"secondary_ms", "ms", "lower", 0.25, endToEnd},
	{"native_ratio", "ratio", "lower", 0.25, endToEnd},
	{"peak_rss_mb", "MB", "lower", 0.25, endToEnd},

	// Detail: the per-workload names the end-to-end slots stand for, plus
	// the tails and restart time that only some workloads define.
	{"pagerank_ms", "ms", "lower", 0.10, detail},
	{"components_ms", "ms", "lower", 0.10, detail},
	{"bfs_ms", "ms", "lower", 0.10, detail},
	{"sssp_ms", "ms", "lower", 0.10, detail},
	{"query_ms_p50", "ms", "lower", 0.10, detail},
	{"query_ms_p95", "ms", "lower", 0.20, detail},
	{"queries_per_s", "1/s", "higher", 0.10, detail},
	{"medges_per_s", "Medges/s", "higher", 0.10, detail},
	{"multi_ms_p50", "ms", "lower", 0.10, detail},
	{"update_ms_p50", "ms", "lower", 0.10, detail},
	{"update_ms_p95", "ms", "lower", 0.25, detail},
	{"update_edges_per_s", "1/s", "higher", 0.10, detail},
	{"restart_s", "s", "lower", 0.15, detail},
	{"failed_frac", "frac", "lower", 0, detail},
	{"compactions", "count", "lower", 0, detail},
	{"checkpoints", "count", "lower", 0, detail},
	{"samples_primary", "count", "higher", 0, detail},
	{"samples_secondary", "count", "higher", 0, detail},
	{"measured_s", "s", "lower", 0, detail},
	{"speed_index", "ratio", "higher", 0, detail},
	{"setup_raw_s", "s", "lower", 0.25, detail},

	// Per layer (traced run).
	lo("graph.parse_ms", "ms"),
	lo("graph.build_ms", "ms"),
	lo("graph.parse_updates_ms", "ms"),
	lo("graph.apply_ms", "ms"),
	lo("graph.compact_ms", "ms"),
	lo("graph.compactions", "count"),
	lo("graph.overlay_nnz_max", "count"),
	lo("graph.pin_ns", "ns"),
	lo("sparse.sort_ms", "ms"),
	lo("sparse.dcsc_build_ms", "ms"),
	lo("core.supersteps", "count"),
	lo("core.edges_processed", "count"),
	lo("core.messages_sent", "count"),
	lo("core.applies", "count"),
	lo("core.columns_probed", "count"),
	lo("core.push_supersteps", "count"),
	lo("core.pull_supersteps", "count"),
	lo("core.superstep_us_p50", "us"),
	lo("core.spmv_ms", "ms"),
	lo("core.send_apply_ms", "ms"),
	hi("core.medges_per_s", "Medges/s"),
	hi("core.computed_gb_per_s", "GB/s"),
	lo("core.block_k1_ratio", "ratio"),
	lo("core.block_k16_per_source_us", "us"),
	hi("core.speedup_nw", "ratio"),
	lo("kernels.scatter_add_f64_ns", "ns"),
	lo("kernels.block_add_f64_ns", "ns"),
	lo("kernels.popcount_ns", "ns"),
	lo("kernels.first_nonzero_ns", "ns"),
	lo("kernels.span_less_ns", "ns"),
	lo("kernels.simd_over_scalar", "ratio"),
	lo("sched.dispatch_us", "us"),
	lo("sched.tasks", "count"),
	lo("sched.steals", "count"),
	hi("sched.busy_frac", "frac"),
	lo("sched.wakes", "count"),
	lo("algorithms.driver_self_ms", "ms"),
	lo("algorithms.registry_self_ms", "ms"),
	lo("algorithms.instance_build_ms", "ms"),
	lo("server.http_self_ms", "ms"),
	lo("server.resp_bytes_p50", "bytes"),
	lo("server.encode_est_ms", "ms"),
	lo("server.batch_wait_ms", "ms"),
	hi("server.batch_width_mean", "sources"),
	hi("server.coalesced_frac", "frac"),
	hi("server.cache_hit_frac", "frac"),
	lo("server.update_http_self_ms", "ms"),
	lo("snap.wal_append_ms", "ms"),
	lo("snap.wal_bytes_per_update", "bytes"),
	lo("snap.write_ms", "ms"),
	lo("snap.write_mb", "MB"),
	lo("snap.bytes_per_edge", "bytes"),
	lo("snap.checkpoints", "count"),
	lo("snap.open_ms", "ms"),
	lo("snap.wal_replay_ms", "ms"),
	lo("snap.replayed_batches", "count"),
	lo("native.pagerank_ms", "ms"),
	lo("native.bfs_ms", "ms"),
	lo("native.sssp_ms", "ms"),
	lo("harness.trace_overhead_frac", "frac"),
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// repeats it.
var workloadWhy = map[string]string{
	"lib_dense":    "library, RMAT-18: all-active pull and the SIMD sum fold; primary=PageRank x10, secondary=components; server, snap and Store idle",
	"lib_sparse":   "library: tiny-frontier push, mode choice, per-superstep cost; primary=SSSP on a 768x768 grid, secondary=BFS on RMAT-18; fold speed barely matters",
	"serve_query":  "live graphmatd, RMAT-16, 2 closed-loop clients: HTTP, batcher, block engine, JSON; primary=single-source query p50, secondary=16-source query p50",
	"serve_update": "durable graphmatd, writer beside reader: WAL, fan-out, compaction, checkpoints; primary=500-update batch p50, secondary=reader query p50",
}

// printTables lists workloads and metrics (the -list flag).
func printTables(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %-13s %s\n", wl.name, workloadWhy[wl.name])
	}
	for _, d := range metricDefs {
		kind := [...]string{"end_to_end", "per_layer", "detail"}[d.Kind]
		fmt.Fprintf(w, "%-10s %-34s %-9s %-6s bound %.2f\n", kind, d.Name, d.Unit, d.Better, d.Bound)
	}
}
