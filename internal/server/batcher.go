package server

import (
	"context"
	"sync"

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
// Admission closes on occupancy, not on a timer. The request that opens a
// batch starts its run at once, and the run closes admission when it gets
// the instance (algoInstance.runMu). So a lone request on an idle instance
// runs at once as a batch of one, and requests that arrive while another run
// holds the instance share the run that starts when it frees. A batch that
// reaches graphmat.MaxBlockSources closes admission under the lock that saw
// it fill. Lock order: runMu, then b.mu.
//
// The trade-off: a burst of simultaneous requests on an idle instance runs
// its first request alone and the rest together. Closed-loop clients almost
// never send such a burst.

// batchKey identifies requests that may share one block run. The epoch is
// part of the key so requests straddling an update batch never share a
// snapshot they would disagree about; the params key has the source stripped
// (that is the dimension being batched over). The epoch is the snapshot
// epoch of the algorithm's store, read from the pin taken at admission — the same
// snapshot the run will use, so the promise the key makes is the one the
// result keeps.
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

// pendingBatch is one batch open for admission: the sources gathered so far,
// the snapshot pin taken when it opened (the epoch every waiter was promised
// by the batch key), and the completion the waiters block on.
type pendingBatch struct {
	p       algorithms.Params // shared non-source parameters
	pin     algorithms.Pin    // admission-time snapshot; released by dispatch
	sources []uint32
	done    chan struct{}
	res     algorithms.BatchResult
	err     error
}

type batcher struct {
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

func newBatcher() *batcher {
	return &batcher{pending: make(map[batchKey]*pendingBatch)}
}

// submit admits one single-source request. It joins (or opens) the pending
// batch for the request's key, waits for the coalesced run, and returns this
// request's column as an ordinary single-source Result. The Stats of a
// coalesced run are the whole batch's aggregate — batching trades per-request
// stat attribution for shared sweeps; a request that ran alone carries the
// Stats of exactly its own run. The second return reports whether the run
// was shared with other requests.
//
// ctx bounds only this caller's wait: a run is not canceled when one of its
// waiters, the opener included, gives up, since the others still want it.
func (b *batcher) submit(ctx context.Context, g *GraphEntry, algo string, p algorithms.Params) (algorithms.Result, bool, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, false, err
	}
	// Pin the snapshot BEFORE keying: the epoch in the batch key and the
	// epoch the run uses are then the same pinned snapshot by construction,
	// so an update landing while the batch waits for the instance cannot
	// skew it onto a newer edge set than its waiters were promised.
	pin := ai.store.Acquire()
	key := batchKey{g: g, algo: algo, epoch: pin.Epoch(), params: sharedParamsKey(p)}
	b.mu.Lock()
	b.submitted++
	pb, joined := b.pending[key]
	if joined {
		// The open batch already holds the pin its key promises; this
		// request's own pin was only needed to compute the key.
		pin.Release()
	} else {
		pb = &pendingBatch{p: p, pin: pin, done: make(chan struct{})}
		b.pending[key] = pb
	}
	idx := len(pb.sources)
	pb.sources = append(pb.sources, p.Source)
	if len(pb.sources) >= graphmat.MaxBlockSources {
		// Close admission under the SAME lock that detected fullness, so no
		// later submit can append a 65th source before the run takes them.
		delete(b.pending, key)
	}
	b.mu.Unlock()
	if !joined {
		// The run may outlive this request (a waiter can leave early), so
		// it counts as in flight on the entry on its own (dispatch exits).
		g.inflight.Add(1)
		go b.dispatch(key, pb)
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

// dispatch runs one batch on the snapshot pinned at admission, then releases
// the pin and wakes the waiters. Admission stays open until the run holds
// the instance; a run that fails before it gets there (an algorithm with no
// source, an instance that will not build) closes admission on its way out,
// so no later request joins a finished batch. The run uses a background
// context — see submit.
func (b *batcher) dispatch(key batchKey, pb *pendingBatch) {
	defer key.g.exit()
	admitted := false
	pb.err = key.g.run(key.algo, true, func(inst algorithms.Instance) (graphmat.Stats, int, error) {
		p := b.admit(key, pb)
		admitted = true
		var err error
		pb.res, err = inst.RunBatch(context.Background(), pb.pin, p, nil)
		return pb.res.Stats, len(pb.res.Sources), err
	})
	if !admitted {
		b.admit(key, pb)
	}
	pb.pin.Release()
	close(pb.done)
}

// admit closes the batch's admission and returns its run's parameters: the
// shared ones with the sources gathered so far.
func (b *batcher) admit(key batchKey, pb *pendingBatch) algorithms.Params {
	b.mu.Lock()
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
	return p
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
