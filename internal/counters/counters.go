// Package counters is the software substitute for the hardware performance
// counters behind Figure 6 of the paper (instructions, stall cycles, read
// bandwidth, IPC measured with the Xeon PMU). No PMU access exists in
// portable Go, so each engine reports exact tallies of the work it did and
// this package maps them onto the same four axes:
//
//	instructions  → WorkItems: operations executed, with boxed (interface-
//	                dispatched, allocating) operations weighted by
//	                BoxedOpWeight since each costs extra instructions for
//	                allocation, copy and dynamic dispatch;
//	stall cycles  → RandomTouches: memory accesses with no spatial locality
//	                (per-edge property lookups, hash probes, pointer chases)
//	                — on the paper's machine as here, random DRAM touches
//	                are what stall the pipeline;
//	read bandwidth→ StreamedBytes / WallSeconds: bytes moved through
//	                sequential scans of compressed structures;
//	IPC           → WorkItems / WallSeconds, work retired per unit time.
//
// The plot normalizes every framework to GraphMat exactly as the paper does,
// so only relative magnitudes matter.
package counters

// BoxedOpWeight is the instruction-count multiplier for operations that
// cross an interface{} boundary (allocation + copy + dynamic dispatch versus
// an inlined call).
const BoxedOpWeight = 4

// Set is one run's counter record.
type Set struct {
	WorkItems     int64
	RandomTouches int64
	StreamedBytes int64
	WallSeconds   float64
}

// FromEngine maps the GraphMat engine's exact work tallies onto the counter
// proxies — the single definition shared by the Figure 6 bench harness and
// the analytics server's /stats endpoint. The arguments are the core.Stats
// fields (passed individually so this leaf package needs no engine import):
// every message is one work item, every edge traversal a process+reduce pair
// with one random destination touch, every apply a random property touch,
// and probes/messages/edges stream 8 bytes each through the compressed
// structures.
func FromEngine(messagesSent, edgesProcessed, applies, columnsProbed int64, wall float64) Set {
	return Set{
		WorkItems:     messagesSent + 2*edgesProcessed + applies + columnsProbed,
		RandomTouches: edgesProcessed + applies,
		StreamedBytes: 8*edgesProcessed + 8*columnsProbed + 8*messagesSent,
		WallSeconds:   wall,
	}
}

// ReadBandwidth returns the streamed-bytes rate (the Figure 6 "read
// bandwidth" axis).
func (s Set) ReadBandwidth() float64 {
	if s.WallSeconds == 0 {
		return 0
	}
	return float64(s.StreamedBytes) / s.WallSeconds
}

// WorkRate returns work items retired per second (the Figure 6 "IPC" axis).
func (s Set) WorkRate() float64 {
	if s.WallSeconds == 0 {
		return 0
	}
	return float64(s.WorkItems) / s.WallSeconds
}

// Ratios returns the four Figure 6 axes of s normalized to base, in the
// paper's order: instructions, stall cycles, read bandwidth, IPC. Lower is
// better for the first two, higher for the last two.
func (s Set) Ratios(base Set) [4]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return [4]float64{
		div(float64(s.WorkItems), float64(base.WorkItems)),
		div(float64(s.RandomTouches), float64(base.RandomTouches)),
		div(s.ReadBandwidth(), base.ReadBandwidth()),
		div(s.WorkRate(), base.WorkRate()),
	}
}

// AxisNames are the Figure 6 series labels.
var AxisNames = [4]string{"Instructions", "Stall cycles", "Read Bandwidth", "IPC"}
