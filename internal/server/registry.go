package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
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
// algorithm-specific property graphs (which preprocess the edges in place)
// are built lazily from materialized copies of it and cached per algorithm,
// each with its own workspace pool.
type Registry struct {
	partitions int
	workers    int
	dataDir    string // persistence root; empty = in-memory only
	mu         sync.RWMutex
	graphs     map[string]*GraphEntry
}

// NewRegistry returns an empty registry. partitions is passed to every graph
// build; 0 selects the engine default. workers is the ingestion parallelism
// for file-backed sources; 0 means GOMAXPROCS. dataDir, when non-empty, is
// the persistence root: each graph gets <dataDir>/<name> with GMATSNAP
// checkpoints and a write-ahead log, and registration of a name that already
// has a valid manifest boots from the mmap'd snapshots instead of parsing.
func NewRegistry(partitions, workers int, dataDir string) *Registry {
	return &Registry{partitions: partitions, workers: workers, dataDir: dataDir, graphs: make(map[string]*GraphEntry)}
}

// GraphEntry is one registered graph. The master is the raw edge set's
// source of truth: the adjacency normalized (row-major sorted, deduplicated)
// at registration is its immutable base, and each update batch lands in its
// overlay — the final state of every touched edge — in O(batch), under the
// master's lock, so readers (lazy instance builds, update translation
// lookups, edge counts) always see a complete epoch. The O(|E|) merge of
// overlay into base happens only where O(|E|) is being paid anyway: a lazy
// instance build materializes a private copy, a checkpoint folds and writes
// the base, and the master folds by itself once the overlay outgrows
// graph.DefaultCompactFraction of the base. Per-algorithm property graphs
// are versioned stores; an update batch fans out to every built instance
// through its own preprocessing.
type GraphEntry struct {
	name       string
	source     string
	partitions int
	workers    int

	// updMu serializes whole update batches (master apply + instance
	// fan-out) so every instance sees batches in the same order.
	updMu sync.Mutex

	master *graph.Master[float32]

	verMu   sync.RWMutex
	epoch   uint64
	updates int64 // raw edge updates applied over the entry's lifetime

	mu    sync.Mutex
	insts map[string]*algoInstance

	// pers, when non-nil, makes the entry durable: WAL-before-ack on every
	// update batch, compaction-driven checkpoints, mmap boot. Set before the
	// entry is published, never changed after.
	pers *persister
}

// algoInstance is one built (graph, algorithm) pair: the property graph, a
// sync.Pool of engine workspaces reused across scalar queries, and run
// tallies. Runs serialize on runMu because a scalar run mutates the property
// graph's vertex state; the workspace pool means back-to-back scalar queries
// reuse scratch instead of paying two vertex-sized allocations each (the
// RedisGraph-style shared engine state this server exists to provide).
type algoInstance struct {
	spec algorithms.Spec
	inst algorithms.Instance

	runMu  sync.Mutex
	pool   sync.Pool
	allocs atomic.Int64 // workspaces created by the pool
	runs   atomic.Int64

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

// CheckName rejects unusable or already-taken graph names. Callers about to
// pay for a load or an upload parse should call it first; AddCOO re-checks
// under the lock, so this is a fast-fail, not the authority.
func (r *Registry) CheckName(name string) error {
	if name == "" || strings.ContainsAny(name, "\x00/") {
		return fmt.Errorf("invalid graph name %q", name)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, dup := r.graphs[name]; dup {
		return fmt.Errorf("%w: %s", ErrGraphExists, name)
	}
	return nil
}

// Add loads a source and registers it under name. The name is validated
// before the load so a bad or duplicate name cannot waste a multi-gigabyte
// file parse. With persistence enabled, a name whose directory holds a valid
// manifest boots from the mmap'd snapshots (plus WAL replay) instead of
// parsing the source; a damaged persisted state falls back to parsing.
func (r *Registry) Add(name string, src Source) (*GraphEntry, error) {
	if err := r.CheckName(name); err != nil {
		return nil, err
	}
	if r.dataDir != "" {
		dir := filepath.Join(r.dataDir, name)
		if snap.HasManifest(dir) {
			entry, err := r.openPersisted(name, src.Describe(), dir)
			if err == nil {
				return r.publish(entry)
			}
			// Unrecoverable persisted state: re-parse the source below and
			// let the registration's fresh checkpoint overwrite it.
		}
	}
	adj, err := src.LoadWorkers(r.workers)
	if err != nil {
		return nil, err
	}
	return r.AddCOO(name, src.Describe(), adj)
}

// publish registers a fully assembled entry under its name.
func (r *Registry) publish(entry *GraphEntry) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[entry.name]; dup {
		if entry.pers != nil {
			entry.pers.closeAll()
		}
		return nil, fmt.Errorf("%w: %s", ErrGraphExists, entry.name)
	}
	r.graphs[entry.name] = entry
	return entry, nil
}

// AddCOO registers already-parsed adjacency triples under name — the upload
// path, where the edges arrived in the request body rather than from a
// Source. The entry lazily builds per-algorithm property graphs and workspace
// pools exactly like a Source-loaded graph. The triples are normalized in
// place into the canonical master form (every builder deduplicates the same
// way, so results are unchanged) and become the master's base.
func (r *Registry) AddCOO(name, source string, adj *sparse.COO[float32]) (*GraphEntry, error) {
	if name == "" || strings.ContainsAny(name, "\x00/") {
		return nil, fmt.Errorf("invalid graph name %q", name)
	}
	graph.NormalizeAdjacency(adj, r.workers)
	entry := &GraphEntry{
		name:       name,
		source:     source,
		master:     graph.NewMaster(adj),
		partitions: r.partitions,
		workers:    r.workers,
		insts:      make(map[string]*algoInstance),
	}
	if r.dataDir != "" {
		// Registration is the entry's first durability point: master
		// snapshot, empty WAL, CURRENT pointer. A name that cannot be made
		// durable is rejected rather than silently registered volatile.
		if err := r.initPersist(entry); err != nil {
			return nil, err
		}
	}
	return r.publish(entry)
}

// Get looks a graph up by name.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entry, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	return entry, nil
}

// Has reports whether the exact entry is still registered (used to avoid
// caching results of a graph deleted mid-run).
func (r *Registry) Has(entry *GraphEntry) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[entry.name] == entry
}

// Remove unregisters a graph; in-flight runs on the entry finish normally.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrGraphNotFound, name)
	}
	delete(r.graphs, name)
	return nil
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
// applied update batch. Instances built after updates landed start life
// already containing them (their own store epochs count batches applied to
// the instance, not the entry).
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
// absorbs the batch in O(batch) and every BUILT per-algorithm property graph
// receives the batch through its own preprocessing (a new store snapshot —
// queries in flight keep the epoch they pinned; workspace pools survive, as
// updates never change the vertex count). Instances built later start from
// the updated master, so built-before and built-after converge on the same
// edge set; re-application races during a concurrent lazy build are benign
// because batch application is idempotent (upserts and deletes are
// last-write-wins). An error wrapping ErrInvalidBatch means the batch was
// rejected whole and nothing changed; any other error is a server-side fault
// (the batch could not be logged, or — after it became durable and the epoch
// advanced — an instance diverged). Returns the entry's new epoch and
// per-instance results.
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
	// the batch first (lazy instance builds and lookups must see the
	// post-batch edge set), the ENTRY EPOCH advances LAST, after every built
	// instance has the batch. A run that reads the new epoch therefore
	// always pins a post-batch snapshot, so nothing stale can ever be cached
	// under the new epoch's key. The reverse window is benign: a run that
	// read the OLD epoch may cache a result of either side of the batch
	// under the old key, which becomes unreachable the moment the epoch
	// advances and is swept by the caller's invalidation.
	if err := g.master.Apply(batch); err != nil {
		return 0, nil, err // unreachable: Check passed and updMu is held
	}

	g.mu.Lock()
	insts := make(map[string]*algoInstance, len(g.insts))
	for n, ai := range g.insts {
		insts[n] = ai
	}
	g.mu.Unlock()
	results := make(map[string]graphmat.ApplyResult, len(insts))
	var fanErr error
	for name, ai := range insts {
		res, err := ai.inst.ApplyUpdates(batch, g.master.Lookup)
		if err != nil {
			// The master already advanced and earlier instances applied;
			// surface the divergence loudly rather than hiding it, but
			// still advance the epoch below — the raw edge set DID change,
			// and leaving the epoch behind would let post-batch results be
			// cached under the old key forever. (With ids validated by the
			// master's Check above, translation cannot fail in practice.)
			fanErr = fmt.Errorf("applying updates to %s/%s: %w", g.name, name, err)
			break
		}
		results[name] = res
	}
	g.verMu.Lock()
	g.epoch++
	g.updates += int64(len(batch))
	epoch := g.epoch
	g.verMu.Unlock()
	// If the batch compacted some instance's overlay (the OnCompact hooks
	// set the dirty flag), rotate the generation while still under updMu:
	// snapshot files at this epoch, fresh WAL, atomic CURRENT flip. The WAL
	// the batch just landed in is retired only after its contents are in the
	// snapshots.
	if g.pers != nil {
		g.pers.maybeCheckpoint(g)
	}
	return epoch, results, fanErr
}

// BuiltAlgorithms returns the algorithms with a built property graph, sorted.
func (g *GraphEntry) BuiltAlgorithms() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.insts))
	for n := range g.insts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance returns the built (graph, algorithm) pair, building it on first
// use. The build consumes a materialized copy, so the master stays pristine
// for the other algorithms' preprocessing. On a persistent entry a fresh
// build is captured into the current generation so the next boot opens it
// instead of rebuilding.
func (g *GraphEntry) instance(algo string) (*algoInstance, error) {
	ai, built, err := g.lockedInstance(algo)
	if err != nil {
		return nil, err
	}
	if built && g.pers != nil {
		// Outside g.mu (the capture takes the update lock, which nests
		// outside the instance lock everywhere else).
		g.updMu.Lock()
		g.pers.onBuild(g, algo, ai)
		g.updMu.Unlock()
	}
	return ai, nil
}

// lockedInstance is instance's cache-or-build core; built reports whether
// this call performed the build.
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
	inst, err := spec.Build(g.master.Materialize(), g.partitions)
	if err != nil {
		return nil, false, fmt.Errorf("building %s graph for %s: %w", algo, g.name, err)
	}
	ai := &algoInstance{spec: spec, inst: inst}
	ai.pool.New = func() any {
		ai.allocs.Add(1)
		return ai.inst.NewScratch()
	}
	g.insts[algo] = ai
	return ai, true, nil
}

// Run executes one query. It serializes on the instance (vertex state is
// shared), drives the engine through a pooled workspace, and accumulates the
// run's engine stats into the instance tallies.
func (g *GraphEntry) Run(algo string, p algorithms.Params) (algorithms.Result, error) {
	return g.RunContext(context.Background(), algo, p, nil)
}

// RunContext is Run under a context: when ctx is canceled — a client
// disconnect, a per-request timeout — the engine aborts cooperatively
// mid-run, releasing the instance lock for the next query; a canceled run's
// workspace is still recycled (the engine leaves scratch reusable). obs,
// when non-nil, receives one progress report per superstep while the run is
// in flight.
func (g *GraphEntry) RunContext(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (algorithms.Result, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.Result{}, err
	}
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	scratch := ai.pool.Get()
	start := time.Now()
	res, err := ai.inst.RunContext(ctx, p, scratch, obs)
	wall := time.Since(start).Seconds()
	// Cleared before it is pooled: stale messages must not leak into the next
	// query (a canceled run leaves some behind).
	if rs, ok := scratch.(interface{ Reset() }); ok {
		rs.Reset()
	}
	ai.pool.Put(scratch)
	if err != nil {
		return res, err
	}
	ai.runs.Add(1)
	ai.record(res.Stats, wall)
	return res, nil
}

// RunBatch executes one multi-source query: one independent single-source run
// per element of p.Sources on one pinned snapshot, advanced together as one
// block run, per-source results bit-identical to that many Run calls. Like
// RunContext it serializes on the instance and accumulates engine stats; the
// run's scratch is allocated per run, not drawn from the workspace pool.
// Algorithms without a source parameter return algorithms.ErrBatchUnsupported.
func (g *GraphEntry) RunBatch(ctx context.Context, algo string, p algorithms.Params, obs algorithms.Observer) (algorithms.BatchResult, error) {
	return g.RunBatchPinned(ctx, algo, nil, p, obs)
}

// RunBatchPinned is RunBatch against a snapshot the caller pinned earlier
// with the instance's AcquirePin — the admission batcher's path, where the
// epoch promised at admission must be the epoch the run executes on. The
// pin stays owned by the caller; a nil pin means the current snapshot.
//
// A batch run of any width keeps its vertex state in its own scratch and
// never writes the pinned snapshot's, so runMu is no longer what keeps it
// correct beside a scalar run; it still holds the lock, which keeps each
// instance to one engine run on the worker pool at a time.
func (g *GraphEntry) RunBatchPinned(ctx context.Context, algo string, pin algorithms.Pin, p algorithms.Params, obs algorithms.Observer) (algorithms.BatchResult, error) {
	ai, err := g.instance(algo)
	if err != nil {
		return algorithms.BatchResult{}, err
	}
	if !ai.spec.Batchable {
		return algorithms.BatchResult{}, algorithms.ErrBatchUnsupported
	}
	ai.runMu.Lock()
	defer ai.runMu.Unlock()
	start := time.Now()
	res, err := ai.inst.RunBatch(ctx, pin, p, obs)
	if err != nil {
		return res, err
	}
	ai.batchRuns.Add(1)
	ai.batchedSources.Add(int64(len(res.Sources)))
	ai.record(res.Stats, time.Since(start).Seconds())
	return res, nil
}

// AlgoStats is the /stats view of one (graph, algorithm) pair.
type AlgoStats struct {
	Runs int64 `json:"runs"`
	// BatchRuns counts batch runs of any width; BatchedSources the source
	// columns they carried (their ratio is the mean batch width).
	BatchRuns      int64 `json:"batch_runs"`
	BatchedSources int64 `json:"batched_sources"`
	// WorkspaceAllocs counts workspaces the pool actually created; scalar runs
	// beyond this number reused pooled scratch. Pools survive edge updates
	// (the vertex count is fixed), so this should stay flat under update
	// traffic.
	WorkspaceAllocs int64          `json:"workspace_allocs"`
	Engine          graphmat.Stats `json:"engine"`
	Counters        counters.Set   `json:"counters"`
	// Store is the instance's versioned-store view: snapshot epoch, overlay
	// size, compactions, pinned snapshots.
	Store graphmat.StoreStats `json:"store"`
}

// Stats snapshots the per-algorithm tallies for this graph.
func (g *GraphEntry) Stats() map[string]AlgoStats {
	g.mu.Lock()
	insts := make(map[string]*algoInstance, len(g.insts))
	for n, ai := range g.insts {
		insts[n] = ai
	}
	g.mu.Unlock()

	out := make(map[string]AlgoStats, len(insts))
	for n, ai := range insts {
		ai.statsMu.Lock()
		engine, wall := ai.engine, ai.wall
		ai.statsMu.Unlock()
		out[n] = AlgoStats{
			Runs:            ai.runs.Load(),
			BatchRuns:       ai.batchRuns.Load(),
			BatchedSources:  ai.batchedSources.Load(),
			WorkspaceAllocs: ai.allocs.Load(),
			Engine:          engine,
			Counters:        counterSet(engine, wall),
			Store:           ai.inst.StoreStats(),
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
