package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

// holdInstance locks the (graph, algorithm) instance's runMu, as a run in
// flight would, so that single-source requests gather behind it instead of
// running at once. The returned release unlocks it; it also runs at cleanup,
// so a failing test never leaves the instance held.
func holdInstance(t *testing.T, g *GraphEntry, algo string) (release func()) {
	t.Helper()
	ai, err := g.instance(algo)
	if err != nil {
		t.Fatal(err)
	}
	ai.runMu.Lock()
	release = sync.OnceFunc(ai.runMu.Unlock)
	t.Cleanup(release)
	return release
}

// waitSubmitted waits until b has admitted n single-source requests.
func waitSubmitted(t *testing.T, b *batcher, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.stats().Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("batcher admitted %d requests, want %d", b.stats().Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func newBatcherTestEntry(t *testing.T) *GraphEntry {
	t.Helper()
	entry, err := NewRegistry(0, 1, "").AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestBatcherEpochPin is the regression test for the admission-epoch skew
// bug: an update batch landing while a batch waits for the instance must
// not drag that batch onto the new snapshot. The batch key promised its
// waiters the admission epoch, and the result must carry it.
func TestBatcherEpochPin(t *testing.T) {
	entry := newBatcherTestEntry(t)
	b := newBatcher()
	release := holdInstance(t, entry, "bfs")

	type outcome struct {
		res algorithms.Result
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		res, _, err := b.submit(context.Background(), entry, "bfs", algorithms.Params{Source: 0})
		first <- outcome{res, err}
	}()

	// The batch is open behind the held instance: apply an update inside it.
	waitSubmitted(t, b, 1)
	if _, _, err := entry.ApplyEdges([]algorithms.EdgeUpdate{{Src: 0, Dst: 40, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	release()

	got := <-first
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Epoch != 0 {
		t.Errorf("request admitted before the update ran at epoch %d, want the admission epoch 0", got.res.Epoch)
	}

	// A request admitted after the update keys — and runs — on the new epoch.
	res, shared, err := b.submit(context.Background(), entry, "bfs", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Error("post-update request joined a batch from the old epoch")
	}
	if res.Epoch != 1 {
		t.Errorf("post-update request ran at epoch %d, want 1", res.Epoch)
	}
}

// TestBatcherWidthCap is the regression test for the width-overflow bug:
// under concurrent same-key submission, no dispatched block run may exceed
// graphmat.MaxBlockSources, and every admitted request must be dispatched
// exactly once. Admission used to close outside the fullness-detecting lock,
// letting a racing submit slip a 65th source into a full batch. With the
// instance held while every request arrives, the widths are exact: two full
// blocks and the remainder.
func TestBatcherWidthCap(t *testing.T) {
	entry := newBatcherTestEntry(t)
	b := newBatcher()
	var (
		widthMu sync.Mutex
		widths  []int
	)
	b.onFlush = func(width int) {
		widthMu.Lock()
		widths = append(widths, width)
		widthMu.Unlock()
	}
	release := holdInstance(t, entry, "bfs")

	n := 2*graphmat.MaxBlockSources + 3
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(src uint32) {
			defer wg.Done()
			if _, _, err := b.submit(context.Background(), entry, "bfs", algorithms.Params{Source: src}); err != nil {
				errs <- err
			}
		}(uint32(i % 64))
	}
	waitSubmitted(t, b, int64(n))
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	widthMu.Lock()
	defer widthMu.Unlock()
	slices.Sort(widths)
	if want := []int{3, graphmat.MaxBlockSources, graphmat.MaxBlockSources}; !slices.Equal(widths, want) {
		t.Errorf("dispatched block widths %v, want %v", widths, want)
	}
	if st := b.stats(); st.Submitted != int64(n) || st.Batches != 3 {
		t.Errorf("stats = %+v, want %d submissions in 3 batches", st, n)
	}
}

// TestBatcherLoneRequestRunsAtOnce: a single-source request on an idle
// instance runs at once, whatever BatchWindow says beyond its sign.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	ts := httptest.NewServer(New(Config{BatchWindow: time.Hour}))
	t.Cleanup(ts.Close)
	addTestGraph(t, ts, "g")

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/graphs/g/run", "application/json", strings.NewReader(`{"algo":"bfs","sources":[0]}`))
	if err != nil {
		t.Fatalf("lone single-source request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lone single-source request = %d", resp.StatusCode)
	}
}

// TestBatcherOpenerMayLeave: the request that opened a batch gives up while
// the batch waits for the instance. The run is the batch's, not the
// opener's: three requests that join later still get their columns, the
// opener gets its own cancellation, and the admission pin is released.
func TestBatcherOpenerMayLeave(t *testing.T) {
	entry := newBatcherTestEntry(t)
	b := newBatcher()
	release := holdInstance(t, entry, "bfs")

	ctx, cancel := context.WithCancel(context.Background())
	opener := make(chan error, 1)
	go func() {
		_, _, err := b.submit(ctx, entry, "bfs", algorithms.Params{Source: 0})
		opener <- err
	}()
	waitSubmitted(t, b, 1)
	cancel()
	if err := <-opener; !errors.Is(err, context.Canceled) {
		t.Fatalf("opener returned %v, want context.Canceled", err)
	}

	sources := []uint32{5, 17, 40}
	results := make([]algorithms.Result, len(sources))
	shared := make([]bool, len(sources))
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], shared[i], errs[i] = b.submit(context.Background(), entry, "bfs", algorithms.Params{Source: src})
		}()
	}
	waitSubmitted(t, b, int64(1+len(sources)))
	release()
	wg.Wait()

	for i, src := range sources {
		if errs[i] != nil {
			t.Fatalf("source %d: %v", src, errs[i])
		}
		if !shared[i] {
			t.Errorf("source %d did not share the opener's batch", src)
		}
		solo, err := entry.RunContext(context.Background(), "bfs", algorithms.Params{Source: src}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(results[i].Values) != len(solo.Values) {
			t.Fatalf("source %d: %d values, solo run has %d", src, len(results[i].Values), len(solo.Values))
		}
		for v := range solo.Values {
			if math.Float64bits(results[i].Values[v]) != math.Float64bits(solo.Values[v]) {
				t.Fatalf("source %d vertex %d: batched %v != solo %v", src, v, results[i].Values[v], solo.Values[v])
			}
		}
	}
	if st := b.stats(); st.Batches != 1 {
		t.Errorf("ran %d batches, want the opener's one", st.Batches)
	}
	ai, err := entry.instance("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if st := ai.store.Stats(); st.Pinned != 0 {
		t.Errorf("%d snapshots still pinned after the batch ran", st.Pinned)
	}
}

// TestBatcherFailedRunClosesAdmission: a batch whose run fails before it
// gets the instance (here: an algorithm with no source to batch over) still
// leaves pending, so no later request joins a finished batch.
func TestBatcherFailedRunClosesAdmission(t *testing.T) {
	entry := newBatcherTestEntry(t)
	b := newBatcher()
	if _, _, err := b.submit(context.Background(), entry, "pagerank", algorithms.Params{}); !errors.Is(err, algorithms.ErrBatchUnsupported) {
		t.Fatalf("submit = %v, want %v", err, algorithms.ErrBatchUnsupported)
	}
	b.mu.Lock()
	open := len(b.pending)
	b.mu.Unlock()
	if open != 0 {
		t.Errorf("%d batches still open after the run failed", open)
	}
	ai, err := entry.instance("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	if st := ai.store.Stats(); st.Pinned != 0 {
		t.Errorf("%d snapshots still pinned after the run failed", st.Pinned)
	}
}
