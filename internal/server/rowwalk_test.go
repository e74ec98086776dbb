package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"graphmat/internal/gen"
)

// TestBatchRowWalkVisible follows the k-wide gather's decision to every
// place an operator can read it: a 16-source bfs on a graph with no pending
// updates reports RowSupersteps in its reply and in /v1/stats, its streamed
// form marks exactly those supersteps row_walk, and right after an edge batch
// that leaves a delta on every layer the same request reports 0 — the
// fallback to the column walk is visible, not silent — with the same values
// (the batch re-weights existing edges, which hop counts ignore).
func TestBatchRowWalkVisible(t *testing.T) {
	_, ts := newTestServer(t)
	opts := gen.RMATOptions{Scale: 11, EdgeFactor: 12, Seed: testSeed, MaxWeight: 10}
	code, body := do(t, ts, http.MethodPost, "/v1/graphs", map[string]any{
		"name": "g", "generator": "rmat", "scale": opts.Scale, "edgefactor": opts.EdgeFactor, "seed": opts.Seed, "maxweight": opts.MaxWeight,
	})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/graphs = %d: %s", code, body)
	}
	sources := make([]uint32, 16) // the lowest ids: hubs of the giant component
	for i := range sources {
		sources[i] = uint32(i)
	}
	run := func(stream bool) (batchReply, int) {
		t.Helper()
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": "bfs", "sources": sources, "stream": stream})
		if code != http.StatusOK {
			t.Fatalf("16-source bfs = %d: %s", code, body)
		}
		lines := splitNDJSON(t, body)
		rowWalks := 0
		for _, ln := range lines[:len(lines)-1] {
			var p streamProgress
			if err := json.Unmarshal(ln, &p); err != nil {
				t.Fatalf("progress line %s: %v", ln, err)
			}
			if p.RowWalk {
				rowWalks++
			}
		}
		var reply batchReply
		if err := json.Unmarshal(lines[len(lines)-1], &reply); err != nil {
			t.Fatal(err)
		}
		return reply, rowWalks
	}
	engineRows := func() int64 {
		t.Helper()
		_, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
		var stats struct {
			Graphs map[string]struct {
				Algorithms map[string]struct {
					Engine struct{ RowSupersteps int64 } `json:"engine"`
				} `json:"algorithms"`
			} `json:"graphs"`
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		return stats.Graphs["g"].Algorithms["bfs"].Engine.RowSupersteps
	}

	fresh, _ := run(false)
	rows := fresh.Stats.RowSupersteps
	if rows == 0 {
		t.Fatalf("a 16-source bfs from the hubs never gathered: %+v", fresh.Stats)
	}
	if got := engineRows(); got != rows {
		t.Errorf("/v1/stats engine RowSupersteps = %d after one run that reported %d", got, rows)
	}
	streamed, marked := run(true)
	if streamed.Stats.RowSupersteps != rows || int64(marked) != rows {
		t.Errorf("streamed run: RowSupersteps %d, %d progress lines marked row_walk, blocking run %d", streamed.Stats.RowSupersteps, marked, rows)
	}

	// Re-weight one existing edge into every 32nd row: every 64-aligned
	// partition takes a delta.
	var batch strings.Builder
	touched := map[uint32]bool{}
	for _, e := range gen.RMAT(opts).Entries {
		if e.Row != e.Col && !touched[e.Col/32] {
			touched[e.Col/32] = true
			fmt.Fprintf(&batch, "{\"src\":%d,\"dst\":%d,\"weight\":%g}\n", e.Row, e.Col, e.Val+1)
		}
	}
	if code, body := doRaw(t, ts, http.MethodPost, "/v1/graphs/g/edges", batch.String()); code != http.StatusOK {
		t.Fatalf("POST /edges = %d: %s", code, body)
	}
	before := engineRows()
	for _, stream := range []bool{false, true} {
		updated, marked := run(stream)
		if updated.Epoch != 1 {
			t.Fatalf("run after the batch is at epoch %d", updated.Epoch)
		}
		if updated.Stats.RowSupersteps != 0 || marked != 0 {
			t.Errorf("stream=%v right after an update: RowSupersteps %d, %d lines marked row_walk: layers with a pending delta keep the column walk", stream, updated.Stats.RowSupersteps, marked)
		}
		for i := range sources {
			if !slices.Equal(updated.Values[i], fresh.Values[i]) {
				t.Errorf("stream=%v source %d: distances changed with the walk", stream, sources[i])
			}
		}
	}
	if got := engineRows(); got != before {
		t.Errorf("/v1/stats engine RowSupersteps moved %d -> %d over runs that reported 0", before, got)
	}
}
