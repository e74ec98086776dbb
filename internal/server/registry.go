package server

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/counters"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// Registry is the server's concurrent-safe table of loaded graphs. Each
// entry keeps the raw edge set in a log-structured master (graph.Master);
// the property graphs the algorithms run on are built lazily from
// materialized copies of it, one store per preprocessing key
// (algorithms.StoreKey) shared by every algorithm of that key.
type Registry struct {
	partitions int
	workers    int
	dataDir    string // persistence root; empty = in-memory only
	mu         sync.RWMutex
	graphs     map[string]*GraphEntry
	// reserved holds the names whose registration is in progress: taken
	// before any of the name's files is written or opened, filled or
	// released when the registration ends, so two registrations of one
	// name never both reach <dataDir>/<name>.
	reserved map[string]struct{}
}

// NewRegistry returns an empty registry. partitions is passed to every graph
// build; 0 selects the engine default. workers is the ingestion parallelism
// for file-backed sources; 0 means GOMAXPROCS. dataDir, when non-empty, is
// the persistence root: each graph gets <dataDir>/<name> with GMATSNAP
// checkpoints and a write-ahead log, and registration of a name that already
// has a valid manifest boots from the mmap'd snapshots instead of parsing.
func NewRegistry(partitions, workers int, dataDir string) *Registry {
	return &Registry{partitions: partitions, workers: workers, dataDir: dataDir, graphs: make(map[string]*GraphEntry), reserved: make(map[string]struct{})}
}

// GraphEntry is one registered graph. The master is the raw edge set's
// source of truth: the adjacency normalized (row-major sorted, deduplicated)
// at registration is its immutable base, and each update batch lands in its
// overlay — the final state of every touched edge — in O(batch), under the
// master's lock, so readers (lazy store builds, update translation
// lookups, edge counts) always see a complete epoch. The O(|E|) merge of
// overlay into base happens only where O(|E|) is being paid anyway: a lazy
// store build materializes a private copy, a checkpoint folds and writes
// the base, and the master folds by itself once the overlay outgrows
// graph.DefaultCompactFraction of the base. The property graphs are
// versioned stores, one per preprocessing key: pagerank, ppr, sssp,
// reachability and widest share the directed store, bfs and components the
// symmetric one, hits and triangles each have their own. An algorithm's first
// query binds it to its key's store, building the store only when the key has
// none. An update batch is translated and applied once per store.
type GraphEntry struct {
	name       string
	source     string
	partitions int
	workers    int

	// updMu serializes whole update batches (master apply + one apply per
	// store) so every store sees batches in the same order.
	updMu sync.Mutex

	master *graph.Master[float32]

	verMu   sync.RWMutex
	epoch   uint64
	updates int64 // raw edge updates applied over the entry's lifetime

	// mu guards insts and stores.
	mu     sync.Mutex
	insts  map[string]*algoInstance
	stores map[algorithms.StoreKey]*propStore

	// pers, when non-nil, makes the entry durable: WAL-before-ack on every
	// update batch, compaction-driven checkpoints, mmap boot. Set before the
	// entry is published, never changed after.
	pers *persister

	// inflight counts the requests using the entry (Registry.Acquire) and
	// the batch runs they dispatched; removed is set by Remove. A removed
	// entry's boot mappings are closed once both the count and its stores'
	// pins are zero (unmapIfIdle).
	inflight atomic.Int64
	removed  atomic.Bool
}

// propStore is one property graph of an entry: the store every algorithm of
// its key is bound to.
type propStore struct {
	*algorithms.Store
	// file is the snapshot file the store's image was last written to or
	// opened from, "" until it has one; persistence state, under the entry's
	// updMu.
	file string
}

// algoInstance is one built (graph, algorithm) pair: the algorithm bound to
// its key's store, and its run tallies. Every run allocates its own engine
// scratch and vertex state, so no run writes the pinned snapshot. Runs still
// serialize on runMu, for two reasons only: it keeps each algorithm to one
// engine run on the worker pool at a time, and taking it is what closes a
// batch's admission (batcher.admit).
type algoInstance struct {
	spec  algorithms.Spec
	inst  algorithms.Instance
	store *propStore

	runMu sync.Mutex
	runs  atomic.Int64

	// batchRuns counts RunBatch executions of any width; batchedSources the
	// total source columns they advanced. batchedSources / batchRuns is the
	// mean batch width — the serving-side view of how well admission batching
	// and explicit multi-source requests amortize adjacency sweeps.
	batchRuns      atomic.Int64
	batchedSources atomic.Int64

	statsMu sync.Mutex
	engine  graphmat.Stats
	wall    float64 // seconds spent inside the engine
}

// record accumulates one completed run's engine stats and wall time into the
// instance tallies.
func (ai *algoInstance) record(s graphmat.Stats, wall float64) {
	ai.statsMu.Lock()
	ai.engine.Add(s)
	ai.wall += wall
	ai.statsMu.Unlock()
}

// Errors distinguished by the HTTP layer.
var (
	ErrGraphExists   = fmt.Errorf("graph already registered")
	ErrGraphNotFound = fmt.Errorf("graph not found")
	ErrAlgoNotFound  = fmt.Errorf("algorithm not found")
	// ErrInvalidBatch marks an update batch rejected by validation (a vertex
	// id outside the graph): the caller's fault, nothing was applied.
	ErrInvalidBatch = fmt.Errorf("invalid update batch")
)

// CheckName rejects unusable or already-taken graph names: a registered
// name, or one whose registration is in progress. Callers about to pay for
// a load or an upload parse should call it first; Add and AddCOO re-check
// when they reserve the name, so this is a fast-fail, not the authority.
func (r *Registry) CheckName(name string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.checkNameLocked(name)
}

// checkNameLocked is CheckName for a caller holding r.mu.
func (r *Registry) checkNameLocked(name string) error {
	if name == "" || strings.ContainsAny(name, "\x00/") {
		return fmt.Errorf("invalid graph name %q", name)
	}
	_, dup := r.graphs[name]
	_, busy := r.reserved[name]
	if dup || busy {
		return fmt.Errorf("%w: %s", ErrGraphExists, name)
	}
	return nil
}

// register reserves name, assembles its entry with build and publishes it.
// The reservation comes first, so a registration that finds the name taken
// fails before build writes or opens any of its files; a build that fails
// releases it.
func (r *Registry) register(name string, build func() (*GraphEntry, error)) (entry *GraphEntry, err error) {
	r.mu.Lock()
	err = r.checkNameLocked(name)
	if err == nil {
		r.reserved[name] = struct{}{}
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.reserved, name)
		if entry != nil {
			r.graphs[name] = entry
		}
	}()
	return build()
}

// Add loads a source and registers it under name. The name is reserved
// before the load so a bad or duplicate name cannot waste a multi-gigabyte
// file parse. With persistence enabled, a name whose directory holds a valid
// manifest boots from the mmap'd snapshots (plus WAL replay) instead of
// parsing the source; a damaged persisted state falls back to parsing.
func (r *Registry) Add(name string, src Source) (*GraphEntry, error) {
	return r.register(name, func() (*GraphEntry, error) {
		if r.dataDir != "" {
			dir := filepath.Join(r.dataDir, name)
			if snap.HasManifest(dir) {
				if entry, err := r.openPersisted(name, src.Describe(), dir); err == nil {
					return entry, nil
				}
				// Unrecoverable persisted state: re-parse the source below
				// and let the registration's fresh checkpoint overwrite it.
			}
		}
		adj, err := src.LoadWorkers(r.workers)
		if err != nil {
			return nil, err
		}
		return r.newEntry(name, src.Describe(), adj)
	})
}

// AddCOO registers already-parsed adjacency triples under name — the upload
// path, where the edges arrived in the request body rather than from a
// Source. The entry lazily builds its stores, one per preprocessing key,
// exactly like a Source-loaded graph. The triples are normalized in place
// into the canonical master form (every builder deduplicates the same way,
// so results are unchanged) and become the master's base.
func (r *Registry) AddCOO(name, source string, adj *sparse.COO[float32]) (*GraphEntry, error) {
	return r.register(name, func() (*GraphEntry, error) { return r.newEntry(name, source, adj) })
}

// newEntry assembles the entry of a reserved name from its adjacency and,
// with persistence enabled, writes its first checkpoint.
func (r *Registry) newEntry(name, source string, adj *sparse.COO[float32]) (*GraphEntry, error) {
	graph.NormalizeAdjacency(adj, r.workers)
	entry := &GraphEntry{
		name:       name,
		source:     source,
		master:     graph.NewMaster(adj),
		partitions: r.partitions,
		workers:    r.workers,
		insts:      make(map[string]*algoInstance),
		stores:     make(map[algorithms.StoreKey]*propStore),
	}
	if r.dataDir != "" {
		// Registration is the entry's first durability point: master
		// snapshot, empty WAL, CURRENT pointer. A name that cannot be made
		// durable is rejected rather than silently registered volatile.
		if err := r.initPersist(entry); err != nil {
			return nil, err
		}
	}
	return entry, nil
}

// Acquire looks a graph up by name for a request that uses it: the entry
// counts the request in flight until release is called, so a deleted
// durable graph's snapshot mappings stay open under every request still
// reading them.
func (r *Registry) Acquire(name string) (entry *GraphEntry, release func(), err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entry, ok := r.graphs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	entry.inflight.Add(1)
	return entry, entry.exit, nil
}

// exit ends one in-flight use of the entry (Acquire's release).
func (g *GraphEntry) exit() {
	if g.inflight.Add(-1) == 0 && g.removed.Load() {
		g.unmapIfIdle()
	}
}

// unmapIfIdle closes a removed durable entry's boot mappings when nothing
// can read them any more: no request is in flight and no snapshot of its
// stores is pinned. Remove and the last exit both try, so whichever comes
// second closes them.
func (g *GraphEntry) unmapIfIdle() {
	if g.pers == nil || g.inflight.Load() != 0 {
		return
	}
	g.mu.Lock()
	for _, st := range g.stores {
		if st.Stats().Pinned != 0 {
			g.mu.Unlock()
			return
		}
	}
	g.mu.Unlock()
	g.pers.unmap()
}

// Has reports whether the exact entry is still registered (used to avoid
// caching results of a graph deleted mid-run).
func (r *Registry) Has(entry *GraphEntry) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[entry.name] == entry
}

// Remove unregisters a graph; in-flight runs on the entry finish normally.
// A durable graph's state goes with it: once no update batch or checkpoint
// of the entry is in flight (its updMu), the persister closes the log,
// refuses every later write and removes the graph's directory, so a later
// registration of the name parses its own source instead of booting the
// deleted graph. The registry stays locked until the directory is gone, so
// that registration cannot find it half removed. The boot mappings close
// when the last request in flight on the entry ends (unmapIfIdle).
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, ok := r.graphs[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	delete(r.graphs, name)
	if entry.pers == nil {
		return nil
	}
	entry.updMu.Lock()
	defer entry.updMu.Unlock()
	err := entry.pers.remove()
	entry.removed.Store(true)
	entry.unmapIfIdle()
	return err
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.graphs))
}

// Name returns the graph's registered name.
func (g *GraphEntry) Name() string { return g.name }

// Source describes where the graph came from.
func (g *GraphEntry) Source() string { return g.source }

// NumVertices reports the raw graph's vertex count (fixed across updates).
func (g *GraphEntry) NumVertices() uint32 { return g.master.NumVertices() }

// NumEdges reports the current raw edge count (before per-algorithm
// preprocessing).
func (g *GraphEntry) NumEdges() int { return g.master.NumEdges() }

// MasterStats reports the raw master's overlay size, fold count and edge
// counts.
func (g *GraphEntry) MasterStats() graph.MasterStats { return g.master.Stats() }

// Epoch reports the entry's raw edge-set version: 0 at registration, +1 per
// applied update batch. Stores built after updates landed start life already
// containing them (their own epochs count batches applied to the store, not
// the entry).
func (g *GraphEntry) Epoch() uint64 {
	g.verMu.RLock()
	defer g.verMu.RUnlock()
	return g.epoch
}

// UpdatesApplied reports the total raw edge updates the entry has absorbed.
func (g *GraphEntry) UpdatesApplied() int64 {
	g.verMu.RLock()
	defer g.verMu.RUnlock()
	return g.updates
}

// ApplyEdges applies one batch of raw edge updates to the entry: the master
// absorbs the batch in O(batch) and every BUILT store receives the batch
// once, through its key's preprocessing (a new store snapshot — queries in
// flight keep the epoch they pinned). Stores built later start from the
// updated master, so built-before and built-after converge on the same edge
// set; re-application races during a concurrent lazy build are benign
// because batch application is idempotent (upserts and deletes are
// last-write-wins). An error wrapping ErrInvalidBatch means the batch was
// rejected whole and nothing changed; any other error is a server-side fault
// (the batch could not be logged, or — after it became durable and the epoch
// advanced — a store diverged). Returns the entry's new epoch and, per built
// algorithm, the result of its store's apply.
func (g *GraphEntry) ApplyEdges(batch []algorithms.EdgeUpdate) (uint64, map[string]graphmat.ApplyResult, error) {
	g.updMu.Lock()
	defer g.updMu.Unlock()

	if err := g.master.Check(batch); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrInvalidBatch, err)
	}
	// Durability point: the validated batch goes to the write-ahead log —
	// fsynced — BEFORE any in-memory state advances. A crash after this line
	// replays the batch at boot; a crash before it never acknowledged the
	// batch. A batch that cannot be logged is rejected whole, leaving every
	// structure at the old epoch.
	if g.pers != nil {
		if err := g.pers.logBatch(g.Epoch()+1, batch); err != nil {
			return 0, nil, err
		}
	}
	// Ordering matters for the epoch-keyed result cache: the master takes
	// the batch first (lazy store builds and lookups must see the post-batch
	// edge set), the ENTRY EPOCH advances LAST, after every built store has
	// the batch. A run that reads the new epoch therefore
	// always pins a post-batch snapshot, so nothing stale can ever be cached
	// under the new epoch's key. The reverse window is benign: a run that
	// read the OLD epoch may cache a result of either side of the batch
	// under the old key, which becomes unreachable the moment the epoch
	// advances and is swept by the caller's invalidation.
	if err := g.master.Apply(batch); err != nil {
		return 0, nil, err // unreachable: Check passed and updMu is held
	}

	applied := make(map[*propStore]graphmat.ApplyResult)
	var fanErr error
	for _, st := range g.builtStores() {
		res, err := st.ApplyUpdates(batch, g.master.Lookup)
		if err != nil {
			// The master already advanced and earlier stores applied;
			// surface the divergence loudly rather than hiding it, but
			// still advance the epoch below — the raw edge set DID change,
			// and leaving the epoch behind would let post-batch results be
			// cached under the old key forever. (With ids validated by the
			// master's Check above, translation cannot fail in practice.)
			fanErr = fmt.Errorf("applying updates to %s's %s store: %w", g.name, st.Key(), err)
			break
		}
		applied[st] = res
	}
	results := make(map[string]graphmat.ApplyResult)
	g.eachBound(func(algo string, st *propStore) {
		if res, ok := applied[st]; ok {
			results[algo] = res
		}
	})
	g.verMu.Lock()
	g.epoch++
	g.updates += int64(len(batch))
	epoch := g.epoch
	g.verMu.Unlock()
	// If the batch compacted some store's overlay (the OnCompact hooks set
	// the dirty flag), rotate the generation while still under updMu:
	// snapshot files at this epoch, fresh WAL, atomic CURRENT flip. The WAL
	// the batch just landed in is retired only after its contents are in the
	// snapshots.
	if g.pers != nil {
		g.pers.maybeCheckpoint(g)
	}
	return epoch, results, fanErr
}

// builtStores returns the entry's stores, for the caller to iterate without
// the entry's lock.
func (g *GraphEntry) builtStores() []*propStore {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Collect(maps.Values(g.stores))
}

// eachBound calls fn for every built algorithm and its store, under the
// entry's lock: fn must not block or take it.
func (g *GraphEntry) eachBound(fn func(algo string, st *propStore)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for algo, ai := range g.insts {
		fn(algo, ai.store)
	}
}

// BuiltAlgorithms returns the algorithms bound to a built store, sorted.
func (g *GraphEntry) BuiltAlgorithms() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Sorted(maps.Keys(g.insts))
}

// instance returns the built (graph, algorithm) pair, binding the algorithm
// to its key's store on first use. On a persistent entry a new binding is
// captured into the current generation so the next boot opens it instead of
// rebuilding.
func (g *GraphEntry) instance(algo string) (*algoInstance, error) {
	ai, added, err := g.lockedInstance(algo)
	if err != nil {
		return nil, err
	}
	if added && g.pers != nil {
		// Outside g.mu (the capture takes the update lock, which nests
		// outside the instance lock everywhere else). A failure is counted,
		// not returned: the WAL holds every batch, and the next checkpoint
		// captures the store.
		g.updMu.Lock()
		if err := g.pers.persistBinding(g, algo, ai.store); err != nil {
			g.pers.checkpointErrs.Add(1)
		}
		g.updMu.Unlock()
	}
	return ai, nil
}

// lockedInstance is instance's cache-or-bind core; added reports whether
// this call bound the algorithm. It binds to the store of the algorithm's
// key and builds that store — from a materialized copy of the master, which
// the build's preprocessing consumes — only when the key has none.
func (g *GraphEntry) lockedInstance(algo string) (*algoInstance, bool, error) {
	spec, ok := algorithms.Lookup(algo)
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrAlgoNotFound, algo)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ai, ok := g.insts[algo]; ok {
		return ai, false, nil
	}
	st := g.stores[spec.Key]
	if st == nil {
		store, err := algorithms.NewStore(spec.Key, g.master.Materialize(), g.partitions)
		if err != nil {
			return nil, false, fmt.Errorf("building %s graph for %s: %w", algo, g.name, err)
		}
		if g.pers != nil {
			store.OnCompact(g.pers.markDirty)
		}
		st = &propStore{Store: store}
		g.stores[spec.Key] = st
	}
	inst, err := spec.Bind(st.Store)
	if err != nil {
		return nil, false, fmt.Errorf("binding %s to %s's %s store: %w", algo, g.name, spec.Key, err)
	}
	ai := &algoInstance{spec: spec, inst: inst, store: st}
	g.insts[algo] = ai
	return ai, true, nil
}

// RunContext executes one scalar query under ctx: when ctx is canceled — a
// client disconnect, a per-request timeout — the engine aborts cooperatively
// mid-run, releasing the instance lock for the next query. obs, when non-nil,
// receives one progress report per superstep while the run is in flight. A
// stopped run returns its error beside a Result whose Stats.Reason records
// the stop cause.
func (g *GraphEntry) RunContext(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (res algorithms.Result, err error) {
	err = g.run(algo, false, func(inst algorithms.Instance) (graphmat.Stats, int, error) {
		res, err = inst.RunContext(ctx, p, nil, obs)
		return res.Stats, 0, err
	})
	return res, err
}

// RunBatch executes one multi-source query: one independent single-source run
// per element of p.Sources on the current snapshot, advanced together as one
// block run, per-source results bit-identical to that many RunContext calls.
// Algorithms without a source parameter return algorithms.ErrBatchUnsupported.
// The v1 API's single-source requests take the batcher instead, which
// coalesces those that arrive while a run of the same instance is in flight.
func (g *GraphEntry) RunBatch(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (res algorithms.BatchResult, err error) {
	err = g.run(algo, true, func(inst algorithms.Instance) (graphmat.Stats, int, error) {
		res, err = inst.RunBatch(ctx, nil, p, obs)
		return res.Stats, len(res.Sources), err
	})
	return res, err
}

// run is the one body of every served run, scalar or batch: look the
// instance up (building it on first use), refuse a batch of an algorithm
// with no source, serialize on runMu, and time the engine call exec makes.
// A run that completes is tallied — as a scalar run, or as a batch run of
// the source columns exec reports — and its engine stats and wall time
// accumulate into the instance's; a failed or stopped run leaves no tally.
func (g *GraphEntry) run(algo string, batch bool, exec func(algorithms.Instance) (graphmat.Stats, int, error)) error {
	ai, err := g.instance(algo)
	if err != nil {
		return err
	}
	if batch && !ai.spec.Batchable {
		return algorithms.ErrBatchUnsupported
	}
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	start := time.Now()
	stats, sources, err := exec(ai.inst)
	if err != nil {
		return err
	}
	if batch {
		ai.batchRuns.Add(1)
		ai.batchedSources.Add(int64(sources))
	} else {
		ai.runs.Add(1)
	}
	ai.record(stats, time.Since(start).Seconds())
	return nil
}

// AlgoStats is the /stats view of one (graph, algorithm) pair.
type AlgoStats struct {
	Runs int64 `json:"runs"`
	// BatchRuns counts batch runs of any width; BatchedSources the source
	// columns they carried (their ratio is the mean batch width).
	BatchRuns      int64          `json:"batch_runs"`
	BatchedSources int64          `json:"batched_sources"`
	Engine         graphmat.Stats `json:"engine"`
	Counters       counters.Set   `json:"counters"`
	// Store is the view of the store the algorithm is bound to: snapshot
	// epoch, overlay size, compactions, pinned snapshots. Algorithms of one
	// key show the same store.
	Store graphmat.StoreStats `json:"store"`
}

// StoreInfo is the /stats view of one store of a graph: the preprocessing
// key it was built by, the algorithms bound to it, sorted, and its counters.
type StoreInfo struct {
	Key        string              `json:"key"`
	Algorithms []string            `json:"algorithms"`
	Store      graphmat.StoreStats `json:"store"`
}

// Stores reports the graph's built stores, sorted by key.
func (g *GraphEntry) Stores() []StoreInfo {
	bound := map[*propStore][]string{}
	g.eachBound(func(algo string, st *propStore) { bound[st] = append(bound[st], algo) })
	out := make([]StoreInfo, 0, len(bound))
	for st, algos := range bound {
		slices.Sort(algos)
		out = append(out, StoreInfo{Key: st.Key().String(), Algorithms: algos, Store: st.Stats()})
	}
	slices.SortFunc(out, func(a, b StoreInfo) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Stats snapshots the per-algorithm tallies for this graph.
func (g *GraphEntry) Stats() map[string]AlgoStats {
	g.mu.Lock()
	insts := maps.Clone(g.insts)
	g.mu.Unlock()

	out := make(map[string]AlgoStats, len(insts))
	for n, ai := range insts {
		ai.statsMu.Lock()
		engine, wall := ai.engine, ai.wall
		ai.statsMu.Unlock()
		out[n] = AlgoStats{
			Runs:           ai.runs.Load(),
			BatchRuns:      ai.batchRuns.Load(),
			BatchedSources: ai.batchedSources.Load(),
			Engine:         engine,
			Counters:       counterSet(engine, wall),
			Store:          ai.store.Stats(),
		}
	}
	return out
}

// counterSet maps engine stats onto the internal/counters proxies (the
// shared Figure 6 mapping), plus the measured wall time so bandwidth and
// work-rate axes are defined.
func counterSet(s graphmat.Stats, wall float64) counters.Set {
	return counters.FromEngine(s.MessagesSent, s.EdgesProcessed, s.Applies, s.ColumnsProbed, wall)
}
