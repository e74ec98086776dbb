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
// updates reports RowSupersteps in its reply and in /v1/stats, and its
// streamed form marks exactly those supersteps row_walk. Right after an edge
// batch that leaves a delta on every layer, the same request gathers on the
// same supersteps: the batch only re-weights existing edges, so no degree
// and no decision moves, the row walk reads each layer's rows with the delta
// merged in, and the values are the same (hop counts ignore weights).
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
	run := func(stream bool) (batchReply, []int) {
		t.Helper()
		code, body := do(t, ts, http.MethodPost, "/v1/graphs/g/run", map[string]any{"algo": "bfs", "sources": sources, "stream": stream})
		if code != http.StatusOK {
			t.Fatalf("16-source bfs = %d: %s", code, body)
		}
		lines := splitNDJSON(t, body)
		var rowWalks []int // the supersteps the progress lines mark row_walk
		for _, ln := range lines[:len(lines)-1] {
			var p streamProgress
			if err := json.Unmarshal(ln, &p); err != nil {
				t.Fatalf("progress line %s: %v", ln, err)
			}
			if p.RowWalk {
				rowWalks = append(rowWalks, p.Iteration)
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
	if streamed.Stats.RowSupersteps != rows || int64(len(marked)) != rows {
		t.Errorf("streamed run: RowSupersteps %d, progress lines %v marked row_walk, blocking run %d", streamed.Stats.RowSupersteps, marked, rows)
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
		updated, updatedMarked := run(stream)
		if updated.Epoch != 1 {
			t.Fatalf("run after the batch is at epoch %d", updated.Epoch)
		}
		if updated.Stats.RowSupersteps != rows {
			t.Errorf("stream=%v right after an update: RowSupersteps %d, %d before it", stream, updated.Stats.RowSupersteps, rows)
		}
		if stream && !slices.Equal(updatedMarked, marked) {
			t.Errorf("right after an update the progress lines mark supersteps %v row_walk, %v before it", updatedMarked, marked)
		}
		for i := range sources {
			if !slices.Equal(updated.Values[i], fresh.Values[i]) {
				t.Errorf("stream=%v source %d: distances changed with the update", stream, sources[i])
			}
		}
	}
	if got := engineRows(); got != before+2*rows {
		t.Errorf("/v1/stats engine RowSupersteps moved %d -> %d over two runs that reported %d each", before, got, rows)
	}
}
