package algorithms

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"

	"graphmat"
)

// This file is the package's named-constructor table: every ready-made
// algorithm is one row (an algo[V] value) giving its stable name, declared
// parameter schema, preprocessing kind (§5.1) and the closures that run it,
// and one generic instance[V] turns any row into a served Instance with the
// uniform result shape. The analytics server dispatches HTTP queries through
// it and the graphmat CLI resolves -algorithm through the same table, so the
// two front ends can never drift apart.

// Params holds the parsed parameters of one registry run. Fields an
// algorithm does not declare in its Spec are rejected by ParseParams, not
// silently ignored.
type Params struct {
	// Source is the start vertex for traversals (bfs, sssp, reachability,
	// widest).
	Source uint32
	// Sources, when non-empty, takes precedence over Source. RunBatch runs
	// once per element. Run treats it as the personalization set for ppr and,
	// for the single-source traversals, accepts exactly one element (the
	// start vertex) — a longer list is an error pointing at RunBatch, never
	// silently truncated.
	Sources []uint32
	// Iterations caps iterative algorithms (pagerank, ppr, hits); 0 means
	// the algorithm's default.
	Iterations int
	// Tolerance is the convergence threshold for pagerank/ppr.
	Tolerance float64
	// RestartProb is the teleport probability for pagerank/ppr; 0 means 0.15.
	RestartProb float64
	// Threads is the engine worker count; 0 means GOMAXPROCS. Results are
	// deterministic across thread counts (partitions own disjoint output
	// ranges and reduce in a fixed order), so Threads is a performance knob,
	// not a semantic one.
	Threads int
	// Mode selects the engine's SpMV kernel (Auto, Pull or Push). Like
	// Threads it is a performance knob: all modes produce bit-identical
	// results — the engine's differential suite asserts it.
	Mode graphmat.Mode
}

// Key returns a canonical cache key for the parameters. Threads and Mode are
// excluded: neither can change the result, only how fast it arrives.
func (p Params) Key() string {
	return fmt.Sprintf("src=%d;srcs=%v;it=%d;tol=%g;r=%g", p.Source, p.Sources, p.Iterations, p.Tolerance, p.RestartProb)
}

func (p Params) config() graphmat.Config {
	return graphmat.Config{Threads: p.Threads, Mode: p.Mode}
}

// Result is the uniform output of a registry run: a per-vertex value series
// (rank, distance, component label), optional named extra series (HITS hub
// and authority), an optional scalar (triangle count), the engine stats, and
// the property-graph epoch the run was pinned to.
type Result struct {
	Values []float64            `json:"values,omitempty"`
	Series map[string][]float64 `json:"series,omitempty"`
	Count  *int64               `json:"count,omitempty"`
	Stats  graphmat.Stats       `json:"stats"`
	// Epoch is the snapshot version the run executed against: 0 for the
	// as-built graph, +1 per update batch applied to the algorithm's Store
	// before the run started. A run in flight keeps its epoch whatever
	// updates land meanwhile.
	Epoch uint64 `json:"epoch"`
}

// ParamKind is the type of one declared parameter.
type ParamKind int

const (
	// Uint is a non-negative integer parameter.
	Uint ParamKind = iota
	// Float is a floating-point parameter.
	Float
	// UintList is a list of non-negative integers.
	UintList
)

// String names the kind for API listings.
func (k ParamKind) String() string {
	switch k {
	case Uint:
		return "uint"
	case Float:
		return "float"
	case UintList:
		return "uint_list"
	}
	return "unknown"
}

// ParamSpec declares one parameter an algorithm accepts.
type ParamSpec struct {
	Name string    `json:"name"`
	Kind ParamKind `json:"-"`
	Desc string    `json:"desc"`
	// set validates one raw value and stores it into the Params field the
	// parameter stands for. ParseParams rejects a declared parameter without
	// one, so a parameter cannot be listed and then silently dropped.
	set func(p *Params, raw any) error
}

// Instance is an algorithm bound to a Store, ready to run queries. The store
// is versioned: Store.ApplyUpdates publishes a new epoch, runs pin the epoch
// current when they start, and a run in flight is never disturbed by updates
// landing under it. A pinned snapshot is edges only: every run, scalar or
// batch, allocates its own vertex state, so runs on one Instance may proceed
// concurrently, and updates may race freely with them — that is the point.
type Instance interface {
	// Run executes the algorithm. scratch, if non-nil, must be a value
	// returned by NewScratch on an instance over the same graph; nil
	// allocates fresh scratch for this run. It is RunContext without a
	// context or observer.
	Run(p Params, scratch any) (Result, error)
	// RunContext executes the algorithm under ctx: cancellation and
	// deadlines stop the engine cooperatively mid-run, and obs, when
	// non-nil, receives one progress report per superstep. A stopped run
	// returns the error alongside a Result whose Stats.Reason records the
	// stop cause.
	RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error)
	// RunBatch executes the algorithm once per source in p.Sources (falling
	// back to {p.Source} when empty) on one pinned snapshot, as one
	// multi-source block run: chunks of up to graphmat.MaxBlockSources share
	// each adjacency sweep, and per-source results are bit-identical to the
	// corresponding single-source Run calls. pin, when non-nil, is a snapshot
	// the caller pinned with Store().Acquire — the run executes on exactly
	// that epoch's edge set, whatever updates landed since, and the pin stays
	// owned by the caller (Release after the call returns); a pin of another
	// store is an error. nil pins the current snapshot for the duration of
	// the call. A batch run of any width keeps all vertex state in scratch
	// allocated per run and never writes the snapshot's. Algorithms with no
	// source parameter return ErrBatchUnsupported (their Spec says
	// Batchable: false).
	RunBatch(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error)
	// NewScratch allocates the reusable engine workspace for this
	// (algorithm, graph) pair, for callers that pool scratch across runs.
	NewScratch() any
	// Store returns the store the algorithm is bound to: its updates, epoch,
	// counters and snapshot image.
	Store() *Store
}

// Pin is one pinned snapshot of a Store, held across calls so a run can be
// scheduled now and executed later against the same epoch. Epoch reports
// the pinned version; Release discharges the pin (exactly once). Values are
// produced by Store.Acquire and consumed by Instance.RunBatch.
type Pin = *graphmat.Snapshot[float32]

// Spec is one registry entry.
type Spec struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []ParamSpec `json:"params"`
	// Batchable marks algorithms whose Instance supports multi-source
	// RunBatch (source-parameterized traversals and personalized ranking);
	// the serving layer only coalesces requests for batchable algorithms.
	// For the built-in algorithms it is derived from the row having a batch
	// closure, so it cannot disagree with what RunBatch does.
	Batchable bool `json:"batchable"`
	// Build constructs the algorithm's store from adjacency triples and binds
	// the algorithm to it: NewStore(Key, adj, partitions), then Bind. The
	// input is consumed (sorted, deduplicated, possibly symmetrized in
	// place); pass a clone to keep the original.
	Build func(adj *graphmat.COO[float32], partitions int) (Instance, error) `json:"-"`
	// Key names the property graph the algorithm runs on; every algorithm of
	// one key runs on the same one (see StoreKey).
	Key StoreKey `json:"-"`
	// Bind returns this algorithm's Instance over st, copying nothing: updates
	// applied to st reach every instance bound to it. It fails when st's key
	// is not Key.
	Bind func(st *Store) (Instance, error) `json:"-"`
}

// engineParams are accepted by every algorithm: both are engine performance
// knobs that cannot change a result.
var engineParams = []ParamSpec{
	uintParam("threads", "engine worker count (0 = GOMAXPROCS)", func(p *Params, n uint64) { p.Threads = int(n) }),
	{Name: "mode", Desc: "SpMV kernel: auto, pull or push", set: func(p *Params, raw any) error {
		name, ok := raw.(string)
		if !ok {
			return fmt.Errorf("expected a string (auto, pull or push), got %T", raw)
		}
		mode, err := graphmat.ParseMode(name)
		p.Mode = mode
		return err
	}},
}

// ParseParams validates raw key/value parameters (JSON-decoded: numbers as
// float64, lists as []any) against the spec's declared schema. Unknown keys
// error. "threads" and "mode" are accepted for every algorithm. Keys are
// visited in sorted order, so a body with several bad keys always reports
// the same one.
func (s Spec) ParseParams(raw map[string]any) (Params, error) {
	var p Params
	for _, key := range slices.Sorted(maps.Keys(raw)) {
		decl, ok := s.param(key)
		if !ok {
			return p, fmt.Errorf("algorithm %s does not accept parameter %q", s.Name, key)
		}
		if decl.set == nil {
			return p, fmt.Errorf("algorithm %s declares parameter %q without a setter", s.Name, key)
		}
		if err := decl.set(&p, raw[key]); err != nil {
			return p, fmt.Errorf("parameter %s: %w", key, err)
		}
	}
	return p, nil
}

// param finds key among the spec's declared parameters, then the engine's.
func (s Spec) param(key string) (ParamSpec, bool) {
	for _, decl := range [][]ParamSpec{s.Params, engineParams} {
		if at := slices.IndexFunc(decl, func(ps ParamSpec) bool { return ps.Name == key }); at >= 0 {
			return decl[at], true
		}
	}
	return ParamSpec{}, false
}

// uintParam declares a non-negative integer parameter stored by store.
func uintParam(name, desc string, store func(p *Params, n uint64)) ParamSpec {
	return ParamSpec{Name: name, Kind: Uint, Desc: desc, set: func(p *Params, raw any) error {
		n, err := asUint(raw)
		if err == nil {
			store(p, n)
		}
		return err
	}}
}

// floatParam declares a floating-point parameter stored by store.
func floatParam(name, desc string, store func(p *Params, f float64)) ParamSpec {
	return ParamSpec{Name: name, Kind: Float, Desc: desc, set: func(p *Params, raw any) error {
		f, err := asFloat(raw)
		if err == nil {
			store(p, f)
		}
		return err
	}}
}

// asUint parses a non-negative integer no larger than math.MaxUint32 (the
// engine's vertex-id and iteration domain), so narrowing to uint32/int in
// the setters can never silently truncate.
func asUint(v any) (uint64, error) {
	switch x := v.(type) {
	case float64:
		if x < 0 || x != float64(uint64(x)) {
			return 0, fmt.Errorf("expected a non-negative integer, got %v", x)
		}
		if x > math.MaxUint32 {
			return 0, fmt.Errorf("value %v exceeds the maximum of %d", x, uint64(math.MaxUint32))
		}
		return uint64(x), nil
	case int:
		if x < 0 {
			return 0, fmt.Errorf("expected a non-negative integer, got %v", x)
		}
		if uint64(x) > math.MaxUint32 {
			return 0, fmt.Errorf("value %v exceeds the maximum of %d", x, uint64(math.MaxUint32))
		}
		return uint64(x), nil
	default:
		return 0, fmt.Errorf("expected a non-negative integer, got %T", v)
	}
}

func asFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("expected a number, got %T", v)
	}
}

var registry = map[string]Spec{}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	return slices.Sorted(maps.Keys(registry))
}

// Specs returns all registered specs, sorted by name.
func Specs() []Spec {
	specs := make([]Spec, 0, len(registry))
	for _, n := range Names() {
		specs = append(specs, registry[n])
	}
	return specs
}

var (
	paramSource  = uintParam("source", "start vertex id", func(p *Params, n uint64) { p.Source = uint32(n) })
	paramSources = ParamSpec{Name: "sources", Kind: UintList, Desc: "personalization vertex ids", set: func(p *Params, raw any) error {
		list, ok := raw.([]any)
		if !ok {
			return fmt.Errorf("expected a list of vertex ids")
		}
		p.Sources = make([]uint32, 0, len(list))
		for _, item := range list {
			n, err := asUint(item)
			if err != nil {
				return err
			}
			p.Sources = append(p.Sources, uint32(n))
		}
		return nil
	}}
	paramIters     = uintParam("iters", "iteration cap (0 = default)", func(p *Params, n uint64) { p.Iterations = int(n) })
	paramTolerance = floatParam("tolerance", "convergence threshold", func(p *Params, f float64) { p.Tolerance = f })
	paramRestart   = floatParam("restart", "teleport probability (0 = 0.15)", func(p *Params, f float64) { p.RestartProb = f })
)

// algo is one row of the algorithm table: everything the registry needs to
// serve a vertex program over property type V. The row is the single place an
// algorithm's preprocessing kind is stated — its StoreKey, its New*Graph and
// New*Store constructors, Spec.Build and the live-update translation all
// derive from it.
type algo[V any] struct {
	name, desc string
	params     []ParamSpec
	// kind is the §5.1 edge preprocessing (see updateKind.preprocess), which
	// is also what a raw edge update must be translated through.
	kind updateKind
	// directions selects the traversal structures to build; zero means Out.
	directions graphmat.Direction
	// sourceSet marks an algorithm whose scalar run is personalized to the
	// whole source list (ppr). Every other algorithm declaring "source" runs
	// from exactly one vertex.
	sourceSet bool
	// scratch allocates the reusable engine workspace for n vertices — the
	// type the algorithm's Run function accepts through WithWorkspace.
	scratch func(n int) any
	// run calls the algorithm's Run function on edges g, over vertex state
	// the run allocates for itself, and projects its typed output into the
	// uniform Result (Epoch is filled in by the instance). p arrives with its
	// source parameters resolved and range-checked. A row that declares batch
	// and no run runs its batch of one (register).
	run func(ctx context.Context, g *graphmat.Edges[float32], p Params, opt Option) (Result, error)
	// batch is the multi-source form, one value series per source; nil for
	// algorithms with no source to batch over.
	batch func(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error)
}

// The table. Adding an algorithm is adding a row here (plus its program).
var (
	pagerankAlgo = register(&algo[PRVertex]{
		name:    "pagerank",
		desc:    "PageRank over out-edges (paper equation 1)",
		params:  []ParamSpec{paramIters, paramTolerance, paramRestart},
		kind:    updDirected,
		scratch: workspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Edges[float32], _ Params, opt Option) (Result, error) {
			ranks, stats, err := RunPageRank(ctx, withState[PRVertex](g), opt)
			return Result{Values: ranks, Stats: stats}, err
		},
	})
	bfsAlgo = register(&algo[uint32]{
		name:    "bfs",
		desc:    "breadth-first hop distances on the symmetrized graph",
		params:  []ParamSpec{paramSource, paramSources},
		kind:    updSymmetric,
		scratch: workspace[uint32, uint32],
		batch:   multi(bfsBatch),
	})
	ssspAlgo = register(&algo[float32]{
		name:    "sssp",
		desc:    "single-source shortest paths (frontier Bellman-Ford)",
		params:  []ParamSpec{paramSource, paramSources},
		kind:    updDirected,
		scratch: workspace[float32, float32],
		batch:   multi(ssspBatch),
	})
	ccAlgo = register(&algo[uint32]{
		name:    "components",
		desc:    "connected components by min-label propagation",
		kind:    updSymmetric,
		scratch: workspace[uint32, uint32],
		run: func(ctx context.Context, g *graphmat.Edges[float32], _ Params, opt Option) (Result, error) {
			labels, stats, err := RunConnectedComponents(ctx, withState[uint32](g), opt)
			return Result{Values: widen(labels), Stats: stats}, err
		},
	})
	pprAlgo = register(&algo[PPRVertex]{
		name:      "ppr",
		desc:      "personalized PageRank toward a source set",
		params:    []ParamSpec{paramSource, paramSources, paramIters, paramTolerance, paramRestart},
		kind:      updDirected,
		sourceSet: true,
		scratch:   workspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Edges[float32], p Params, opt Option) (Result, error) {
			ranks, stats, err := pprRun(ctx, g, p.Sources, opt)
			return Result{Values: ranks, Stats: stats}, err
		},
		// Note the semantic difference from run: run with k sources computes
		// ONE rank vector personalized to the whole set, batch computes k
		// independent vectors, one per source.
		batch: pprBatch,
	})
	reachabilityAlgo = register(&algo[uint32]{
		name:    "reachability",
		desc:    "directed reachability over the boolean (OR, AND) semiring",
		params:  []ParamSpec{paramSource, paramSources},
		kind:    updDirected,
		scratch: workspace[uint32, uint32],
		batch:   multi(reachabilityBatch),
	})
	widestAlgo = register(&algo[float32]{
		name:    "widest",
		desc:    "widest (bottleneck) paths over the (max, min) semiring",
		params:  []ParamSpec{paramSource, paramSources},
		kind:    updDirected,
		scratch: workspace[float32, float32],
		batch:   multi(widestBatch),
	})
	trianglesAlgo = register(&algo[TCVertex]{
		name:    "triangles",
		desc:    "triangle count via the two-phase neighbor-intersection pipeline",
		kind:    updUpperTriangle,
		scratch: func(n int) any { return NewTriangleScratch(n) },
		run: func(ctx context.Context, g *graphmat.Edges[float32], _ Params, opt Option) (Result, error) {
			count, stats, err := RunTriangleCount(ctx, withState[TCVertex](g), opt)
			return Result{Count: &count, Stats: stats}, err
		},
	})
	hitsAlgo = register(&algo[HITSVertex]{
		name:       "hits",
		desc:       "HITS hub and authority scores (L2-normalized half-steps)",
		params:     []ParamSpec{paramIters},
		kind:       updDirected,
		directions: graphmat.Both,
		scratch:    workspace[float64, float64],
		run: func(ctx context.Context, g *graphmat.Edges[float32], _ Params, opt Option) (Result, error) {
			scores, stats, err := RunHITS(ctx, withState[HITSVertex](g), opt)
			hub := make([]float64, len(scores))
			auth := make([]float64, len(scores))
			for v, s := range scores {
				hub[v], auth[v] = s.Hub, s.Auth
			}
			// A stopped run still carries the scores as of the stop, matching
			// the other algorithms' partial-result contract.
			return Result{Series: map[string][]float64{"hub": hub, "auth": auth}, Stats: stats}, err
		},
	})
)

// register publishes a row as a Spec and returns it, so the table's var
// block both names each row (for the New*Graph constructors) and registers
// it in one statement; a duplicate name panics (registration happens at init
// time). A single-source row's scalar run is its batch of one.
func register[V any](a *algo[V]) *algo[V] {
	if _, dup := registry[a.name]; dup {
		panic("algorithms: duplicate registration of " + a.name)
	}
	if a.run == nil {
		a.run = a.batchOfOne
	}
	key := a.key()
	bind := func(st *Store) (Instance, error) {
		if st.key != key {
			return nil, fmt.Errorf("algorithms: binding %s (%s) to a %s store", a.name, key, st.key)
		}
		return &instance[V]{st, a}, nil
	}
	registry[a.name] = Spec{
		Name:        a.name,
		Description: a.desc,
		Params:      a.params,
		Batchable:   a.batch != nil,
		Build: func(adj *graphmat.COO[float32], partitions int) (Instance, error) {
			st, err := NewStore(key, adj, partitions)
			if err != nil {
				return nil, err
			}
			return bind(st)
		},
		Key:  key,
		Bind: bind,
	}
	return a
}

// key is the row's StoreKey: its preprocessing kind and built directions, a
// zero directions field meaning Out as the graph builder reads it.
func (a *algo[V]) key() StoreKey {
	dirs := a.directions
	if dirs == 0 {
		dirs = graphmat.Out
	}
	return StoreKey{kind: a.kind, directions: dirs}
}

// newGraph builds the row's graph; the input is consumed.
func (a *algo[V]) newGraph(adj *graphmat.COO[float32], partitions int) (*graphmat.Graph[V, float32], error) {
	return graphmat.New[V](adj, a.key().buildOptions(adj, partitions))
}

// newStore builds the row's versioned store.
func (a *algo[V]) newStore(adj *graphmat.COO[float32], partitions int) (*graphmat.Store[float32], error) {
	return graphmat.NewStore(adj, a.key().buildOptions(adj, partitions))
}

// bindSources decides, once for every algorithm, what a scalar run's source
// parameters mean, and range-checks them: p.Sources overrides p.Source; a
// source-set algorithm (ppr) takes the whole list, every other algorithm
// declaring "source" takes exactly one vertex and rejects a longer list
// instead of quietly running from vertex p.Source.
func (a *algo[V]) bindSources(p *Params, n uint32) error {
	if !slices.ContainsFunc(a.params, func(ps ParamSpec) bool { return ps.Name == paramSource.Name }) {
		return nil
	}
	what := "source"
	if a.sourceSet {
		what = "personalization"
	} else if len(p.Sources) > 1 {
		return fmt.Errorf("algorithm %s runs from one source, got %d: use RunBatch (over HTTP, the request's top-level \"sources\") for one run per source", a.name, len(p.Sources))
	}
	if len(p.Sources) == 0 {
		p.Sources = []uint32{p.Source}
	}
	if err := checkSources(p.Sources, n, what); err != nil {
		return err
	}
	p.Source = p.Sources[0]
	return nil
}

func checkSources(sources []uint32, n uint32, what string) error {
	for _, s := range sources {
		if err := checkSource(s, n, what); err != nil {
			return err
		}
	}
	return nil
}

func checkSource(v uint32, n uint32, what string) error {
	if v >= n {
		return fmt.Errorf("%s vertex %d out of range (graph has %d vertices)", what, v, n)
	}
	return nil
}

// withState pairs edges g with a fresh one-column vertex state: the served
// scalar run of an algorithm with no source parameter owns its state, so it
// never writes the pinned snapshot and runs beside any other run on it.
func withState[V any](g *graphmat.Edges[float32]) *graphmat.Graph[V, float32] {
	return &graphmat.Graph[V, float32]{Edges: g, BlockState: graphmat.NewBlockState[V](int(g.NumVertices()), 1)}
}

// instance is the package's only Instance struct: a table row bound to a
// Store. V is the vertex property type of the state its runs allocate.
type instance[V any] struct {
	store *Store
	row   *algo[V]
}

func (i *instance[V]) Store() *Store { return i.store }

func (i *instance[V]) NewScratch() any { return i.row.scratch(int(i.store.NumVertices())) }

func (i *instance[V]) Run(p Params, scratch any) (Result, error) {
	return i.RunContext(context.Background(), p, scratch, nil)
}

// RunContext is the one scalar run path: resolve and range-check the
// sources, pin a snapshot, run on it with the caller's (type-checked by the
// Run function) or fresh scratch, stamp the pinned epoch.
func (i *instance[V]) RunContext(ctx context.Context, p Params, scratch any, obs Observer) (Result, error) {
	if err := i.row.bindSources(&p, i.store.NumVertices()); err != nil {
		return Result{}, err
	}
	snap := i.store.Acquire()
	defer snap.Release()
	res, err := i.row.run(ctx, snap.Graph(), p, p.option(scratch, obs))
	res.Epoch = snap.Epoch()
	return res, err
}

// RunBatch runs on the caller's pin or, with none, on one it takes for the
// call. A pin of another store is an error, not a panic, because the serving
// layer routes pins across goroutines. The batch functions range-check the
// sources themselves.
func (i *instance[V]) RunBatch(ctx context.Context, pin Pin, p Params, obs Observer) (BatchResult, error) {
	if i.row.batch == nil {
		return BatchResult{}, ErrBatchUnsupported
	}
	if pin == nil {
		own := i.store.Acquire()
		defer own.Release()
		pin = own
	}
	if pin.Store() != i.store.versioned {
		return BatchResult{}, fmt.Errorf("algorithms: the pin (epoch %d) is not a snapshot of %s's %s store", pin.Epoch(), i.row.name, i.store.key)
	}
	sources := p.Sources
	if len(sources) == 0 {
		sources = []uint32{p.Source}
	}
	values, stats, err := i.row.batch(ctx, pin.Graph(), sources, p.option(nil, obs))
	return BatchResult{Sources: sources, Values: values, Stats: stats, Epoch: pin.Epoch()}, err
}

// option lowers parsed parameters plus a run's scratch and observer into the
// Run functions' option set; fields an algorithm has no use for are ignored
// there.
func (p Params) option(scratch any, obs Observer) Option {
	set := settings{cfg: p.config(), ws: scratch, obs: obs, iters: p.Iterations, tol: p.Tolerance, restart: p.RestartProb}
	return func(s *settings) { *s = set }
}

// workspace is the scratch constructor of every algorithm with one message
// and one reduction type.
func workspace[M, R any](n int) any {
	return graphmat.NewWorkspace[M, R](n, graphmat.Bitvector)
}

// widen converts a typed result series to the registry's float64 result
// shape; uint32 and float32 are both exactly representable in float64, so
// the conversion is lossless.
func widen[T uint32 | float32](s []T) []float64 {
	out := make([]float64, len(s))
	for v, x := range s {
		out[v] = float64(x)
	}
	return out
}

// batchOfOne is the scalar run of a row with a batch closure and no run
// closure: the batch over p.Source alone.
func (a *algo[V]) batchOfOne(ctx context.Context, g *graphmat.Edges[float32], p Params, opt Option) (Result, error) {
	values, stats, err := batchOfOne(a.batch(ctx, g, []uint32{p.Source}, opt))
	return Result{Values: values, Stats: stats}, err
}

// multi adapts a multi-source traversal (bfsBatch and friends) to a row's
// batch closure.
func multi[T uint32 | float32](run func(context.Context, *graphmat.Edges[float32], []uint32, ...Option) ([][]T, graphmat.Stats, error)) func(context.Context, *graphmat.Edges[float32], []uint32, ...Option) ([][]float64, graphmat.Stats, error) {
	return func(ctx context.Context, g *graphmat.Edges[float32], sources []uint32, opts ...Option) ([][]float64, graphmat.Stats, error) {
		rows, stats, err := run(ctx, g, sources, opts...)
		values := make([][]float64, len(rows))
		for s, row := range rows {
			values[s] = widen(row)
		}
		return values, stats, err
	}
}
