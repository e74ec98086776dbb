package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are taken from outside the program,
// around the calls into each layer's public functions; they stay in memory
// and are written once, when the run ends, as a Chrome trace-event file
// (chrome://tracing, Perfetto). A layer's self time is its span minus what
// its child spans cover.

// Layer names: the repository's modules.
const (
	layerGraph      = "graph"
	layerSparse     = "sparse"
	layerCore       = "core"
	layerKernels    = "kernels"
	layerSched      = "sched"
	layerAlgorithms = "algorithms"
	layerServer     = "server"
	layerSnap       = "snap"
	layerNative     = "native"
)

// span is one timed call. Spans of one operation share Op; Parent is the id
// of the span that caused this one, -1 at the top.
type span struct {
	Name   string
	Layer  string
	Op     int
	Parent int
	Start  int64 // ns since the tracer started
	End    int64
}

type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its id; end closes it.
func (t *tracer) begin(name, layer string, op, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// add records a span whose interval is already known (a superstep reported by
// the engine's observer after the fact).
func (t *tracer) add(name, layer string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// call times fn as one span and returns its duration in milliseconds.
func (t *tracer) call(name, layer string, op, parent int, fn func(id int)) float64 {
	id := t.begin(name, layer, op, parent)
	fn(id)
	return float64(t.end(id).Nanoseconds()) / 1e6
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval its direct children cover (overlapping children counted once).
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for id, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], id)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for id, s := range t.spans {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].Start < t.spans[kids[j]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, cursor), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[id] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfMS returns the self times, in milliseconds, of the spans with the given
// ids.
func (t *tracer) selfMS(ids []int) []float64 {
	self := t.selfTimes()
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(self[id].Nanoseconds()) / 1e6
	}
	return out
}

// write emits the spans in Chrome trace-event form: complete ("X") events,
// one thread lane per operation, the layer as the category.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for id, s := range t.spans {
		events[id] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op,
			Args: map[string]any{
				"id": id, "parent": s.Parent, "op": s.Op, "layer": s.Layer, "workload": t.workload,
				"start_ns": s.Start, "end_ns": s.End,
			},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
