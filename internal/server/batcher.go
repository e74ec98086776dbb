package server

import (
	"context"
	"sync"
	"time"

	"graphmat"
	"graphmat/algorithms"
)

// The admission/batching layer of the v1 run API. Concurrent single-source
// requests for the same (graph, algorithm, epoch, non-source parameters) are
// coalesced into one multi-source block run — the k requests share every
// adjacency sweep instead of paying k of them — and the per-source columns
// fan back out to the waiting requests. Because the block engine is
// bit-identical per source to the scalar engine, coalescing is invisible to
// clients except in latency: each response carries exactly the values a solo
// run would have produced.
//
// The coalescing window is deliberately short (default 2ms): it exists to
// catch requests that are already in flight together, not to delay lone
// queries hoping company shows up. A batch that reaches the block width
// (graphmat.MaxBlockSources) flushes immediately. A window that closes with
// one source in it — most of them, at two closed-loop clients — flushes like
// any other: what a one-column block run costs is the engine's business.

const defaultBatchWindow = 2 * time.Millisecond

// batchKey identifies requests that may share one block run. The epoch is
// part of the key so requests straddling an update batch never share a
// snapshot they would disagree about; the params key has the source stripped
// (that is the dimension being batched over). The epoch is the instance
// store's snapshot epoch, read from the pin taken at admission — the same
// snapshot the flush will run on, so the promise the key makes is the one
// the result keeps.
type batchKey struct {
	g      *GraphEntry
	algo   string
	epoch  uint64
	params string
}

// sharedParamsKey canonicalizes the non-source parameters of a request.
func sharedParamsKey(p algorithms.Params) string {
	p.Source, p.Sources = 0, nil
	return p.Key()
}

// pendingBatch is one open coalescing window: the sources gathered so far,
// the snapshot pin taken when the window opened (the epoch every waiter was
// promised by the batch key), and the completion the waiters block on.
type pendingBatch struct {
	p       algorithms.Params // shared non-source parameters
	pin     algorithms.Pin    // admission-time snapshot; released by flush
	sources []uint32
	flushed bool
	done    chan struct{}
	res     algorithms.BatchResult
	err     error
}

type batcher struct {
	window time.Duration

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch

	// Tallies for GET /v1/stats.
	submitted int64 // single-source requests admitted
	batches   int64 // batch runs dispatched, of any width
	coalesced int64 // requests that shared a run with at least one other

	// onFlush, when set, observes each dispatched block run's width — a test
	// hook for asserting the admission cap.
	onFlush func(width int)
}

func newBatcher(window time.Duration) *batcher {
	if window == 0 {
		window = defaultBatchWindow
	}
	return &batcher{window: window, pending: make(map[batchKey]*pendingBatch)}
}

// submit admits one single-source request. It joins (or opens) the pending
// batch for the request's key, waits for the coalesced run, and returns this
// request's column as an ordinary single-source Result. The Stats of a
// coalesced run are the whole batch's aggregate — batching trades per-request
// stat attribution for shared sweeps; a request that ran alone carries the
// Stats of exactly its own run. The second return reports whether the run
// was shared with other requests.
//
// ctx bounds only this caller's wait: a coalesced run is not canceled when
// one of its waiters gives up, since the others still want the result.
func (b *batcher) submit(ctx context.Context, g *GraphEntry, algo string, p algorithms.Params) (algorithms.Result, bool, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, false, err
	}
	// Pin the snapshot BEFORE keying: the epoch in the batch key and the
	// epoch the flush runs against are then the same pinned snapshot by
	// construction, so an update landing inside the open window cannot skew
	// the batch onto a newer edge set than its waiters were promised.
	pin := ai.inst.AcquirePin()
	key := batchKey{g: g, algo: algo, epoch: pin.Epoch(), params: sharedParamsKey(p)}
	b.mu.Lock()
	b.submitted++
	pb, joined := b.pending[key]
	if !joined {
		pb = &pendingBatch{p: p, pin: pin, done: make(chan struct{})}
		b.pending[key] = pb
		time.AfterFunc(b.window, func() { b.flush(key, pb) })
	}
	idx := len(pb.sources)
	pb.sources = append(pb.sources, p.Source)
	full := len(pb.sources) >= graphmat.MaxBlockSources
	if full {
		// Close admission under the SAME lock that detected fullness:
		// removing the batch from pending here means no later submit can
		// append a 65th source in the gap before flush re-locks.
		delete(b.pending, key)
	}
	b.mu.Unlock()
	if joined {
		// The open batch already holds the pin its key promises; this
		// request's own pin was only needed to compute the key.
		pin.Release()
	}
	if full {
		// A full block flushes in the submitting goroutine: the run happens
		// here, and the AfterFunc finds the batch already flushed.
		b.flush(key, pb)
	}
	select {
	case <-pb.done:
	case <-ctx.Done():
		return algorithms.Result{}, false, ctx.Err()
	}
	if pb.err != nil {
		return algorithms.Result{}, false, pb.err
	}
	return algorithms.Result{
		Values: pb.res.Values[idx],
		Stats:  pb.res.Stats,
		Epoch:  pb.res.Epoch,
	}, len(pb.res.Sources) > 1, nil
}

// flush closes the batch's admission window and executes the batch run on
// the snapshot pinned at admission, then releases the pin. Idempotent: the
// width-triggered flush and the timer both call it, the first one wins. The
// run uses a background context — see submit.
func (b *batcher) flush(key batchKey, pb *pendingBatch) {
	b.mu.Lock()
	if pb.flushed {
		b.mu.Unlock()
		return
	}
	pb.flushed = true
	if b.pending[key] == pb {
		delete(b.pending, key)
	}
	p := pb.p
	p.Source = 0
	p.Sources = append([]uint32(nil), pb.sources...)
	b.batches++
	if len(p.Sources) > 1 {
		b.coalesced += int64(len(p.Sources))
	}
	onFlush := b.onFlush
	b.mu.Unlock()
	if onFlush != nil {
		onFlush(len(p.Sources))
	}
	pb.res, pb.err = key.g.RunBatchPinned(context.Background(), key.algo, pb.pin, p, nil)
	pb.pin.Release()
	close(pb.done)
}

// batcherStats is the GET /v1/stats view of the admission layer.
type batcherStats struct {
	Submitted int64 `json:"submitted"`
	Batches   int64 `json:"batches"`
	Coalesced int64 `json:"coalesced"`
}

func (b *batcher) stats() batcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return batcherStats{Submitted: b.submitted, Batches: b.batches, Coalesced: b.coalesced}
}
