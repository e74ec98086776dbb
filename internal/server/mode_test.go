package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

// TestRunModeParam covers the mode= run parameter end to end: query form,
// body form, precedence, rejection of garbage, bit-identical results across
// modes, and the per-mode /v1/stats tallies.
func TestRunModeParam(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "g")

	ref := runAlgo(t, ts, "g", "bfs", map[string]any{"source": float64(0)})

	// Query form. The result cache would mask a kernel divergence (mode is
	// deliberately not part of the cache key), so compare against a
	// stream=1 run, which bypasses the read side of the cache.
	for _, mode := range []string{"pull", "push"} {
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run/bfs?stream=1&mode="+mode, map[string]any{"source": float64(0)})
		if code != http.StatusOK {
			t.Fatalf("mode=%s: %d %s", mode, code, body)
		}
		var final runReply
		dec := json.NewDecoder(bytes.NewReader(body))
		for dec.More() {
			final = runReply{}
			if err := dec.Decode(&final); err != nil {
				t.Fatalf("mode=%s: decoding stream: %v", mode, err)
			}
		}
		if len(final.Values) != len(ref.Values) {
			t.Fatalf("mode=%s: %d values vs %d", mode, len(final.Values), len(ref.Values))
		}
		for v := range ref.Values {
			if math.Float64bits(final.Values[v]) != math.Float64bits(ref.Values[v]) {
				t.Fatalf("mode=%s: value[%d] %v vs %v", mode, v, final.Values[v], ref.Values[v])
			}
		}
	}

	// Body form parses through the registry's global "mode" parameter.
	if code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run/bfs?stream=1", map[string]any{"source": float64(0), "mode": "push"}); code != http.StatusOK {
		t.Fatalf("body mode: %d %s", code, body)
	}

	// Garbage is rejected in both positions.
	if code, _ := do(t, ts, http.MethodPost, "/v1/graphs/g/run/bfs?mode=sideways", map[string]any{"source": float64(0)}); code != http.StatusBadRequest {
		t.Errorf("query mode=sideways accepted: %d", code)
	}
	if code, _ := do(t, ts, http.MethodPost, "/v1/graphs/g/run/bfs", map[string]any{"source": float64(0), "mode": "sideways"}); code != http.StatusBadRequest {
		t.Errorf("body mode=sideways accepted: %d", code)
	}

	// /v1/stats reports the per-mode run tallies and the engine's superstep
	// split.
	code, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var stats struct {
		ModeRuns map[string]int64 `json:"mode_runs"`
		Graphs   map[string]struct {
			Algorithms map[string]struct {
				Engine struct {
					PushSupersteps int64
					PullSupersteps int64
					Iterations     int64
				} `json:"engine"`
			} `json:"algorithms"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ModeRuns["pull"] < 1 || stats.ModeRuns["push"] < 2 || stats.ModeRuns["auto"] < 1 {
		t.Errorf("mode_runs tallies wrong: %v", stats.ModeRuns)
	}
	eng := stats.Graphs["g"].Algorithms["bfs"].Engine
	if eng.PushSupersteps+eng.PullSupersteps == 0 {
		t.Errorf("engine superstep mode split missing: %+v", eng)
	}
}
