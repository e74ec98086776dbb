// Package server implements graphmatd, the long-running graph analytics
// service: a registry of loaded graphs, per-graph pools of reusable engine
// workspaces, a named-algorithm dispatch table over the algorithms registry,
// an LRU result cache, and an HTTP/JSON API. The design follows RedisGraph
// (Cailliau et al., 2019): a GraphBLAS-style engine gains most of its
// serving throughput from keeping graphs and engine scratch resident across
// queries rather than rebuilding them per request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/graph"
	"graphmat/internal/sched"
	"graphmat/internal/sparse"
)

// Config configures a Server.
type Config struct {
	// CacheSize is the LRU result-cache capacity in entries; 0 means the
	// default (128), negative disables caching.
	CacheSize int
	// Partitions is the matrix partition count for graph builds; 0 selects
	// the engine default.
	Partitions int
	// Workers is the ingestion parallelism for graph uploads (chunked
	// parsing); 0 means GOMAXPROCS, 1 forces sequential parsing.
	Workers int
	// MaxUploadBytes caps the POST /v1/graphs upload body; 0 means the default
	// (1 GiB).
	MaxUploadBytes int64
	// DataDir, when non-empty, enables persistence: each graph gets
	// <DataDir>/<name> holding GMATSNAP checkpoints, a write-ahead log, and
	// a CURRENT manifest. Update batches are fsynced to the WAL before they
	// are acknowledged, and re-registering a persisted name boots from the
	// mmap'd snapshots instead of re-parsing and re-building.
	DataDir string
	// BatchWindow is the admission-batching window of the v1 run API:
	// single-source requests for the same (graph, algorithm, epoch, params)
	// arriving within it coalesce into one multi-source block run. 0 means
	// the default (2ms); negative disables coalescing (each request runs as a
	// width-1 batch).
	BatchWindow time.Duration
	// Logger, when set, receives one line per request.
	Logger *log.Logger
}

const defaultMaxUpload = 1 << 30

// Server is the graphmatd HTTP service.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *resultCache
	batcher *batcher // nil when coalescing is disabled
	mux     *http.ServeMux
	start   time.Time

	epMu     sync.Mutex
	requests map[string]int64
	// modeRuns tallies /run requests by the kernel mode they asked for
	// (auto, pull, push) — the serving-side view of the direction-
	// optimization knob, surfaced in GET /v1/stats.
	modeRuns map[string]int64
}

// New builds a server with no graphs loaded.
func New(cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = 128
	}
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(cfg.Partitions, cfg.Workers, cfg.DataDir),
		cache:    newResultCache(size),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		requests: make(map[string]int64),
		modeRuns: make(map[string]int64),
	}
	if cfg.BatchWindow >= 0 {
		s.batcher = newBatcher(cfg.BatchWindow)
	}
	// Every endpoint lives under /v1 and nowhere else.
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/algorithms", s.handleAlgorithms)
	s.handle("GET /v1/openapi.json", s.handleOpenAPI)
	s.handle("GET /v1/graphs", s.handleListGraphs)
	s.handle("POST /v1/graphs", s.handleAddGraph)
	s.handle("GET /v1/graphs/{name}", s.handleGetGraph)
	s.handle("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	s.handle("POST /v1/graphs/{name}/edges", s.handleUpdateEdges)
	s.handle("POST /v1/graphs/{name}/run", s.handleRunV1)
	s.handle("POST /v1/graphs/{name}/run/{algo}", s.handleRun)
	return s
}

// AddGraph loads a source and registers it (the -graph preload path).
func (s *Server) AddGraph(name string, src Source) error {
	_, err := s.reg.Add(name, src)
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle registers a pattern with per-endpoint request counting and optional
// request logging — the tallies surface in GET /v1/stats.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.epMu.Lock()
		s.requests[pattern]++
		s.epMu.Unlock()
		if s.cfg.Logger != nil {
			start := time.Now()
			h(w, r)
			s.cfg.Logger.Printf("%s %s (%s)", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
			return
		}
		h(w, r)
	})
}

// writeJSON answers with a small control reply (everything but run results,
// which stream through reply.go). The body is marshaled before the status
// line goes out, so a value that will not marshal is a 500 with a reason, not
// the intended status over an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encoding reply: " + err.Error()}) // a string map always marshals
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errorCode maps registry errors to HTTP statuses.
func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrGraphNotFound), errors.Is(err, ErrAlgoNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrGraphExists):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "graphs": len(s.reg.Names())})
}

// graphInfo is the JSON view of one registered graph.
type graphInfo struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	Vertices uint32 `json:"vertices"`
	Edges    int    `json:"edges"`
	// Epoch is the graph's edge-set version: 0 at registration, +1 per
	// applied update batch.
	Epoch uint64   `json:"epoch"`
	Built []string `json:"built_algorithms,omitempty"`
}

func infoOf(g *GraphEntry) graphInfo {
	return graphInfo{
		Name:     g.Name(),
		Source:   g.Source(),
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Epoch:    g.Epoch(),
		Built:    g.BuiltAlgorithms(),
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	infos := make([]graphInfo, 0, len(names))
	for _, n := range names {
		if g, err := s.reg.Get(n); err == nil {
			infos = append(infos, infoOf(g))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

// addGraphRequest is the POST /v1/graphs JSON body: a name plus a flattened
// Source.
type addGraphRequest struct {
	Name string `json:"name"`
	Source
}

// handleAddGraph registers a graph one of two ways. With a ?format= query
// parameter the request is an upload: the body is the graph data itself
// (format "mtx", "edgelist" or "bin"/"binary"), parsed server-side by the
// parallel ingestion pipeline and registered under ?name=. Without ?format=
// the body is the JSON Source form (path or generator).
func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	if format := r.URL.Query().Get("format"); format != "" {
		s.handleUploadGraph(w, r, format)
		return
	}
	var req addGraphRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyErrorCode(err), "decoding request: %v", err)
		return
	}
	entry, err := s.reg.Add(req.Name, req.Source)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(entry))
}

// handleUploadGraph is the upload half of POST /v1/graphs: build the graph from
// the request body and register it. An uploaded graph is indistinguishable
// from one loaded at boot — same registry entry, same lazily built
// per-algorithm property graphs and workspace pools — so /run results match
// a boot-loaded copy of the same edges exactly.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request, format string) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "upload: ?name= is required")
		return
	}
	// Fail before reading the body: a taken or malformed name should not
	// cost a gigabyte-scale read and parse.
	if err := s.reg.CheckName(name); err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	maxBytes := s.cfg.MaxUploadBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxUpload
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		writeError(w, bodyErrorCode(err), "reading upload: %v", err)
		return
	}
	opt := graph.LoadOptions{Parallelism: s.cfg.Workers}
	var coo *sparse.COO[float32]
	switch strings.ToLower(format) {
	case "mtx":
		coo, err = graph.ParseMTX(body, opt)
	case "edgelist", "txt", "el":
		coo, err = graph.ParseEdgeList(body, opt)
	case "bin", "binary":
		coo, err = graph.ParseBinary(body, opt)
	default:
		writeError(w, http.StatusBadRequest, "unknown upload format %q (want mtx, edgelist or bin)", format)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing %s upload: %v", format, err)
		return
	}
	// Reject unusable graphs at POST time rather than registering an entry
	// every /run would 400 on: algorithms need a square adjacency, and
	// binary records carry ids the format itself does not bounds-check.
	if coo.NRows != coo.NCols {
		writeError(w, http.StatusBadRequest, "upload: adjacency must be square, got %dx%d", coo.NRows, coo.NCols)
		return
	}
	if err := coo.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "upload: %v", err)
		return
	}
	entry, err := s.reg.AddCOO(name, fmt.Sprintf("upload:%s (%d bytes)", strings.ToLower(format), len(body)), coo)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(entry))
}

// updateResponse is the POST /v1/graphs/{name}/edges reply.
type updateResponse struct {
	Graph string `json:"graph"`
	// Epoch is the graph's new edge-set version.
	Epoch uint64 `json:"epoch"`
	// Updates is the raw batch size accepted.
	Updates    int     `json:"updates"`
	DurationMS float64 `json:"duration_ms"`
	// Instances reports what the batch did to each built property graph
	// (inserted/deleted/updated counts are post-preprocessing, so a raw
	// insert can appear as two symmetrized property edges).
	Instances map[string]graphmat.ApplyResult `json:"instances"`
}

// handleUpdateEdges is the live-update endpoint: the body is an edge-update
// batch — NDJSON ({"src","dst","weight","del"} per line) or the text form
// ([add|del] src dst [weight]); ?format=ndjson|edgelist overrides the
// first-byte sniff. The batch lands atomically: the master adjacency
// advances one epoch, every built algorithm instance receives the batch
// through its own preprocessing, and cached results of older epochs are
// dropped. Queries running while the batch lands finish on the snapshot
// they pinned.
func (s *Server) handleUpdateEdges(w http.ResponseWriter, r *http.Request) {
	g, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	maxBytes := s.cfg.MaxUploadBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxUpload
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		writeError(w, bodyErrorCode(err), "reading update batch: %v", err)
		return
	}
	var batch []graphmat.EdgeUpdate
	switch format := strings.ToLower(r.URL.Query().Get("format")); format {
	case "":
		batch, err = graph.ParseUpdates(body)
	case "ndjson", "json":
		batch, err = graph.ParseUpdatesNDJSON(body)
	case "edgelist", "txt", "el":
		batch, err = graph.ParseUpdateList(body)
	default:
		writeError(w, http.StatusBadRequest, "unknown update format %q (want ndjson or edgelist)", format)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing update batch: %v", err)
		return
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "update batch is empty")
		return
	}
	start := time.Now()
	epoch, results, err := g.ApplyEdges(batch)
	// Older epochs' cached results are unreachable already (the epoch is in
	// the cache key); the sweep keeps them from squatting in the LRU.
	s.cache.invalidateGraph(g.Name())
	if err != nil {
		// Only a batch the master's validation rejected is the client's
		// fault. A failed WAL append left everything at the old epoch; an
		// instance fan-out divergence happened after the batch became
		// durable and the epoch advanced. Both are server faults.
		code := http.StatusInternalServerError
		if errors.Is(err, ErrInvalidBatch) {
			code = http.StatusBadRequest
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Graph:      g.Name(),
		Epoch:      epoch,
		Updates:    len(batch),
		DurationMS: ms(time.Since(start)),
		Instances:  results,
	})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	g, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, infoOf(g))
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	s.cache.invalidateGraph(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// algorithmInfo is the GET /v1/algorithms view of one registry spec.
type algorithmInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Params      []algoParamInfo `json:"params"`
}

type algoParamInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Desc string `json:"desc"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	specs := algorithms.Specs()
	infos := make([]algorithmInfo, 0, len(specs))
	for _, spec := range specs {
		info := algorithmInfo{Name: spec.Name, Description: spec.Description, Params: []algoParamInfo{}}
		for _, p := range spec.Params {
			info.Params = append(info.Params, algoParamInfo{Name: p.Name, Kind: p.Kind.String(), Desc: p.Desc})
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": infos})
}

// runResponse is the single-source run reply: the uniform algorithm result
// plus query metadata. Cached marks an LRU fast-path hit; Coalesced marks a
// v1 response whose engine run was shared with concurrent requests through
// the admission batcher (the values are bit-identical to a solo run either
// way).
type runResponse struct {
	Graph      string  `json:"graph"`
	Algorithm  string  `json:"algorithm"`
	Cached     bool    `json:"cached"`
	Coalesced  bool    `json:"coalesced,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	algorithms.Result
}

// batchRunResponse is the multi-source reply of POST /v1/graphs/{name}/run:
// one value series per requested source, in request order.
type batchRunResponse struct {
	Graph      string  `json:"graph"`
	Algorithm  string  `json:"algorithm"`
	DurationMS float64 `json:"duration_ms"`
	algorithms.BatchResult
}

// runRequest is the POST /v1/graphs/{name}/run body — the whole query in one
// document — and what the per-algorithm endpoint translates its path, query
// string and body into.
type runRequest struct {
	// Algo names the registry algorithm to run.
	Algo string `json:"algo"`
	// Sources, when present, asks for one independent single-source run per
	// listed vertex, executed as a multi-source block batch (batchable
	// algorithms only). A one-element list keeps the scalar response shape
	// and is eligible for admission coalescing with concurrent requests.
	Sources []uint32 `json:"sources,omitempty"`
	// Mode selects the SpMV kernel (auto, pull or push); empty means auto.
	Mode string `json:"mode,omitempty"`
	// Params carries the algorithm's own parameters, validated against its
	// declared schema exactly like the per-algorithm endpoint's body.
	Params map[string]any `json:"params,omitempty"`
	// TimeoutMS bounds the run's wall time; expiry returns 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream switches the response to NDJSON: one progress line per
	// superstep, then a final line shaped like the blocking response.
	Stream bool `json:"stream,omitempty"`
}

// handleRunV1 is the unified v1 query endpoint: the whole query is the body.
func (s *Server) handleRunV1(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyErrorCode(err), "decoding request: %v", err)
		return
	}
	s.runQuery(w, r, req)
}

// handleRun is the per-algorithm spelling of the same query: the algorithm
// comes from the path, its parameters are the (possibly empty) body, and
// mode, timeout_ms and stream (1 or true) arrive as query parameters. It only
// translates; runQuery does the rest, so the two endpoints cannot drift.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := runRequest{Algo: r.PathValue("algo")}
	if err := decodeJSON(w, r, &req.Params); err != nil && err != io.EOF {
		writeError(w, bodyErrorCode(err), "decoding params: %v", err)
		return
	}
	q := r.URL.Query()
	req.Mode = q.Get("mode")
	if tms := q.Get("timeout_ms"); tms != "" {
		n, err := strconv.ParseInt(tms, 10, 64)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid timeout_ms %q: want a positive integer", tms)
			return
		}
		req.TimeoutMS = n
	}
	stream := q.Get("stream")
	req.Stream = stream == "1" || stream == "true"
	s.runQuery(w, r, req)
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow (and wrap negative: an instant 504 for the longest timeout).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// runQuery executes one decoded query; both run endpoints end here. The run
// inherits the request's context, so a client that disconnects cancels its
// engine work. Requests without a sources list are scalar runs (cache fast
// path included). Requests with sources take the multi-source path: k
// independent runs advanced as one block batch, bit-identical per source to
// k solo runs. Single-source requests go through the admission batcher,
// which coalesces concurrent compatible requests into shared block runs —
// the LRU cache is deliberately not consulted on this path; shared sweeps,
// not memoization, are the v1 dedup mechanism.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, req runRequest) {
	name := r.PathValue("name")
	g, err := s.reg.Get(name)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	spec, ok := algorithms.Lookup(req.Algo)
	if !ok {
		writeError(w, http.StatusNotFound, "%v: %q (have %v)", ErrAlgoNotFound, req.Algo, algorithms.Names())
		return
	}
	params, err := spec.ParseParams(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The request-level mode wins over a "mode" algorithm parameter. Mode is
	// a performance knob: all modes are bit-identical, so it does not
	// participate in the result-cache key.
	if req.Mode != "" {
		mode, err := graphmat.ParseMode(req.Mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid mode %q: want auto, pull or push", req.Mode)
			return
		}
		params.Mode = mode
	}
	ctx := r.Context()
	if req.TimeoutMS != 0 {
		if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
			writeError(w, http.StatusBadRequest, "invalid timeout_ms %d: want a positive integer", req.TimeoutMS)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if len(req.Sources) == 0 {
		// Scalar form — params may carry source/sources; the instance
		// decides what they mean.
		s.finishRun(ctx, w, g, name, req.Algo, params, req.Stream)
		return
	}
	if !spec.Batchable {
		writeError(w, http.StatusBadRequest, "algorithm %q has no source parameter to batch over; omit sources", req.Algo)
		return
	}
	s.epMu.Lock()
	s.modeRuns[params.Mode.String()]++
	s.epMu.Unlock()
	if req.Stream {
		s.streamRunBatch(ctx, w, g, name, req.Algo, req.Sources, params)
		return
	}
	start := time.Now()
	if len(req.Sources) == 1 {
		params.Source, params.Sources = req.Sources[0], nil
		var res algorithms.Result
		var coalesced bool
		if s.batcher != nil {
			res, coalesced, err = s.batcher.submit(ctx, g, req.Algo, params)
		} else {
			var batch algorithms.BatchResult
			if batch, err = g.RunBatch(ctx, req.Algo, params, nil); err == nil {
				res = algorithms.Result{Values: batch.Values[0], Stats: batch.Stats, Epoch: batch.Epoch}
			}
		}
		if err != nil {
			writeError(w, runErrorCode(err), "%v", err)
			return
		}
		writeRunReply(w, runResponse{
			Graph:      name,
			Algorithm:  req.Algo,
			Coalesced:  coalesced,
			DurationMS: ms(time.Since(start)),
			Result:     res,
		})
		return
	}
	params.Source, params.Sources = 0, req.Sources
	batch, err := g.RunBatch(ctx, req.Algo, params, nil)
	if err != nil {
		writeError(w, runErrorCode(err), "%v", err)
		return
	}
	writeBatchRunReply(w, batchRunResponse{
		Graph:       name,
		Algorithm:   req.Algo,
		DurationMS:  ms(time.Since(start)),
		BatchResult: batch,
	})
}

// finishRun executes a fully parsed scalar run: the per-mode tally, the
// stream branch, the cache fast path, the engine run, and the response.
func (s *Server) finishRun(ctx context.Context, w http.ResponseWriter, g *GraphEntry, name, algo string, params algorithms.Params, stream bool) {
	// Tally after all parameter validation: rejected requests must not skew
	// the per-mode counters.
	s.epMu.Lock()
	s.modeRuns[params.Mode.String()]++
	s.epMu.Unlock()
	if stream {
		s.streamRun(ctx, w, g, name, algo, params)
		return
	}

	// The epoch read here keys the cache: a batch landing after this point
	// changes the epoch, so the result computed below would be published
	// under a key no future reader of the new epoch consults — and the
	// post-run epoch check drops it entirely rather than cache a result
	// whose provenance is ambiguous.
	epoch := g.Epoch()
	key := cacheKey(name, epoch, algo, params)
	if res, ok := s.cache.get(key); ok {
		writeRunReply(w, runResponse{Graph: name, Algorithm: algo, Cached: true, Result: res})
		return
	}
	start := time.Now()
	res, err := g.RunContext(ctx, algo, params, nil)
	if err != nil {
		writeError(w, runErrorCode(err), "%v", err)
		return
	}
	// Don't cache under a name whose graph was deleted (or replaced)
	// mid-run: the next registration of that name must never see it. The
	// liveness check comes AFTER the put — if a concurrent delete's
	// invalidation raced between our put and this check, Has is false and
	// we invalidate again; checking before the put would leave a window
	// where the stale entry survives. An epoch moved by a concurrent update
	// batch skips the put the same way.
	if g.Epoch() == epoch {
		s.cache.put(key, res)
	}
	if !s.reg.Has(g) {
		s.cache.invalidateGraph(name)
	}
	writeRunReply(w, runResponse{
		Graph:      name,
		Algorithm:  algo,
		DurationMS: ms(time.Since(start)),
		Result:     res,
	})
}

// runErrorCode maps a run failure to an HTTP status: an expired per-request
// timeout is a gateway timeout; a canceled context means the client already
// went away (the write is best-effort — 499 follows the nginx convention for
// client-closed requests).
func runErrorCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	}
	return errorCode(err)
}

// streamProgress is one NDJSON progress line of a stream=1 run.
type streamProgress struct {
	Iteration  int   `json:"iteration"`
	Active     int64 `json:"active"`
	Sent       int64 `json:"sent"`
	NextActive int64 `json:"next_active"`
	// RowWalk marks a superstep that gathered by destination row (see
	// graphmat.IterationInfo); absent on every other line.
	RowWalk   bool    `json:"row_walk,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	TotalMS   float64 `json:"total_ms"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ndjsonStream is the response of a stream=1 run: a 200 whose body is
// written and flushed a line at a time. The short progress and error lines go
// through encoding/json; the final result line is a run reply and goes
// through the reply encoder, then flush.
type ndjsonStream struct {
	enc     *json.Encoder
	flusher http.Flusher // nil when the ResponseWriter cannot flush
}

func startStream(w http.ResponseWriter) ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return ndjsonStream{enc: json.NewEncoder(w), flusher: flusher}
}

func (out ndjsonStream) flush() {
	if out.flusher != nil {
		out.flusher.Flush()
	}
}

func (out ndjsonStream) line(v any) error {
	err := out.enc.Encode(v)
	out.flush()
	return err
}

// progress is the run's observer: one line per superstep. A write failure —
// the client hung up — stops the run through the error return.
func (out ndjsonStream) progress(info graphmat.IterationInfo) error {
	return out.line(streamProgress{
		Iteration:  info.Iteration,
		Active:     info.Active,
		Sent:       info.Sent,
		NextActive: info.NextActive,
		RowWalk:    info.RowWalk,
		ElapsedMS:  ms(info.Elapsed),
		TotalMS:    ms(info.Total),
	})
}

// fail reports a run that stopped mid-stream as the final line (the status
// was 200 long ago).
func (out ndjsonStream) fail(err error, reason graphmat.StopReason) {
	_ = out.line(map[string]string{"error": err.Error(), "reason": reason.String()}) // best effort: the client may be what stopped the run
}

// streamRun executes a run in streaming mode. The result cache is bypassed
// on the read side (a cache hit would defeat the point of watching
// progress), but the computed result is still published to it. Because
// progress lines flush before the run finishes, the HTTP status is always
// 200; a run that fails mid-stream reports the failure as a final
// {"error": ...} line instead of a status code. A write failure — the
// client hung up — stops the run through the observer's error return.
func (s *Server) streamRun(ctx context.Context, w http.ResponseWriter, g *GraphEntry, name, algo string, params algorithms.Params) {
	out := startStream(w)
	start := time.Now()
	epoch := g.Epoch()
	res, err := g.RunContext(ctx, algo, params, out.progress)
	if err != nil {
		out.fail(err, res.Stats.Reason)
		return
	}
	if g.Epoch() == epoch {
		s.cache.put(cacheKey(name, epoch, algo, params), res)
	}
	if !s.reg.Has(g) {
		s.cache.invalidateGraph(name)
	}
	abortOn(encodeRunResponse(w, runResponse{
		Graph:      name,
		Algorithm:  algo,
		DurationMS: ms(time.Since(start)),
		Result:     res,
	}))
	out.flush()
}

// streamRunBatch is streamRun's multi-source form: progress lines cover the
// whole block run (per-superstep totals across every live column), the final
// line is the batchRunResponse shape. The admission batcher and the result
// cache are both bypassed — a streaming client wants to watch its own run.
func (s *Server) streamRunBatch(ctx context.Context, w http.ResponseWriter, g *GraphEntry, name, algo string, sources []uint32, params algorithms.Params) {
	out := startStream(w)
	params.Source, params.Sources = 0, sources
	start := time.Now()
	res, err := g.RunBatch(ctx, algo, params, out.progress)
	if err != nil {
		out.fail(err, res.Stats.Reason)
		return
	}
	abortOn(encodeBatchRunResponse(w, batchRunResponse{
		Graph:       name,
		Algorithm:   algo,
		DurationMS:  ms(time.Since(start)),
		BatchResult: res,
	}))
	out.flush()
}

// GraphStats is the /stats view of one registered graph: its edge-set
// version, update traffic, and the per-algorithm tallies.
type GraphStats struct {
	// Epoch is the graph's edge-set version (0 at registration, +1 per
	// update batch).
	Epoch uint64 `json:"epoch"`
	// UpdatesApplied counts raw edge updates absorbed over the graph's
	// lifetime.
	UpdatesApplied int64 `json:"updates_applied"`
	// Master is the raw edge set's log-structured master: live and base
	// edge counts, overlay size, and folds (a batch whose duration_ms stands
	// out against a fold-count step paid an O(|E|) merge).
	Master graph.MasterStats `json:"master"`
	// Algorithms is the per-(graph, algorithm) view, including each
	// instance's versioned-store counters.
	Algorithms map[string]AlgoStats `json:"algorithms"`
	// Persist is the graph's durability view: boot provenance, checkpoint
	// and WAL counters. Omitted when the server runs without -data-dir.
	Persist *PersistStats `json:"persist,omitempty"`
}

// statsResponse is the GET /v1/stats reply.
type statsResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      map[string]int64 `json:"requests"`
	// ModeRuns counts /run requests by requested kernel mode; the engine-
	// side view (supersteps actually pushed vs pulled, including how Auto
	// resolved) is in each graph's per-algorithm engine stats.
	ModeRuns map[string]int64 `json:"mode_runs"`
	Cache    cacheStats       `json:"cache"`
	// Batcher is the v1 admission layer's view: requests admitted, block
	// runs dispatched, and how many requests shared a run with others.
	Batcher batcherStats          `json:"batcher"`
	Graphs  map[string]GraphStats `json:"graphs"`
	// Sched is the process-wide scheduler runtime's per-worker utilization
	// view: one entry per pool size in use, cumulative since the pool was
	// first woken (tasks run, tasks stolen, busy nanoseconds, wakeups).
	Sched []sched.PoolStats `json:"sched,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.epMu.Lock()
	reqs := make(map[string]int64, len(s.requests))
	for k, v := range s.requests {
		reqs[k] = v
	}
	modes := make(map[string]int64, len(s.modeRuns))
	for k, v := range s.modeRuns {
		modes[k] = v
	}
	s.epMu.Unlock()

	graphs := make(map[string]GraphStats)
	for _, n := range s.reg.Names() {
		if g, err := s.reg.Get(n); err == nil {
			gs := GraphStats{
				Epoch:          g.Epoch(),
				UpdatesApplied: g.UpdatesApplied(),
				Master:         g.MasterStats(),
				Algorithms:     g.Stats(),
			}
			if ps := g.PersistStats(); ps.Enabled {
				gs.Persist = &ps
			}
			graphs[n] = gs
		}
	}
	var bs batcherStats
	if s.batcher != nil {
		bs = s.batcher.stats()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      reqs,
		ModeRuns:      modes,
		Cache:         s.cache.stats(),
		Batcher:       bs,
		Graphs:        graphs,
		Sched:         sched.Snapshot(),
	})
}

// maxJSONBody caps a JSON request document (a run query, a graph source). The
// graph data itself travels on the upload and update routes, under
// Config.MaxUploadBytes.
const maxJSONBody = 1 << 20

// decodeJSON strictly decodes a request body holding exactly one JSON
// document of at most maxJSONBody bytes: unknown fields, anything but
// whitespace after the document, and a longer body are errors. Empty bodies
// return io.EOF.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the JSON document")
		}
		return err
	}
	return nil
}

// bodyErrorCode maps a failure to read or decode a request body to a status:
// only an over-limit body is the client's size problem; anything else
// (malformed, disconnect, reset) is a plain bad request.
func bodyErrorCode(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
