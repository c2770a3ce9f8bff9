// Package server puts a store on the network: a small, dependency-free
// JSON API over net/http, so the filter-and-refine engine can serve
// queries from processes that did not build (or even cannot build) the
// index. The surface is deliberately narrow:
//
//	POST   /v1/search        one k-NN query (by inline object or stored ID)
//	POST   /v1/search/batch  many queries, pipelined through SearchBatch
//	POST   /v1/objects       add an object, returns its stable ID
//	PUT    /v1/objects/{id}  atomically replace an object, keeping its ID
//	DELETE /v1/objects/{id}  remove by stable ID
//	GET    /v1/stats         store + per-endpoint traffic statistics
//	GET    /v1/debug/slow    the N slowest queries, with stage breakdowns
//	GET    /metrics          Prometheus text exposition (see internal/obs)
//	GET    /healthz          liveness probe
//	GET    /readyz           readiness probe (degraded persistence, shedding)
//
// Because the store's reads are lock-free copy-on-write, the handlers
// never hold a lock across a search: any number of /v1/search requests
// proceed concurrently with /v1/objects mutations, each request seeing
// one consistent store version. Request bodies are size-bounded, every
// endpoint validates before touching the store, and per-endpoint
// request/error/latency counters are maintained with atomics (visible
// under /v1/stats).
//
// The server degrades loudly, never silently: a handler panic is caught
// by the instrumentation middleware and answered with a 500 (and
// counted) instead of killing the connection; work endpoints pass
// through a bounded in-flight semaphore that sheds excess load with 429
// + Retry-After rather than queueing without bound; searches run under a
// configurable deadline and answer 504 when they exceed it; and /readyz
// (distinct from the pure-liveness /healthz) reports the store's
// degraded-persistence state and the shedding gate, flipping to 503 when
// the process should be rotated out of a load balancer while /v1/search
// keeps answering. Queries arrive as raw JSON and are turned into domain
// objects by a caller-supplied decode function — the HTTP layer stays as
// generic over T as everything else in the repository.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qse/internal/meta"
	"qse/internal/obs"
	"qse/internal/retrieval"
	"qse/internal/store"
)

// DefaultMaxBody bounds request bodies when Options.MaxBodyBytes is zero.
const DefaultMaxBody = 1 << 20

// DefaultBatchLimit bounds the number of queries in one batch request.
const DefaultBatchLimit = 1024

// Options configures a Server. The zero value is usable.
type Options struct {
	// MaxBodyBytes caps the request body size; oversized requests get 413.
	MaxBodyBytes int64
	// BatchLimit caps queries per /v1/search/batch request.
	BatchLimit int
	// MaxInFlight bounds concurrently executing work requests (search,
	// batch, mutations; probes and stats are never gated). Excess load is
	// shed immediately with 429 + Retry-After. Zero or negative means
	// unbounded.
	MaxInFlight int
	// SearchTimeout bounds one search or batch computation; a request
	// over it is answered 504. Zero or negative means no deadline.
	SearchTimeout time.Duration
	// SlowLogSize caps the slow-query log served at /v1/debug/slow.
	// Zero means DefaultSlowLogSize.
	SlowLogSize int
}

// endpoint indexes the per-endpoint metric slots.
type endpoint int

const (
	epSearch endpoint = iota
	epSearchBatch
	epAdd
	epUpsert
	epRemove
	epStats
	epHealth
	epReady
	epMetrics
	epDebugSlow
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"search", "search_batch", "add", "upsert", "remove", "stats", "healthz", "readyz",
	"metrics", "debug_slow",
}

// Server serves one store — plain or sharded, anything satisfying
// store.Backend — over HTTP.
type Server[T any] struct {
	st     store.Backend[T]
	decode func(json.RawMessage) (T, error)
	opts   Options
	start  time.Time

	// Observability (built by initObs): the registry behind /metrics,
	// per-endpoint traffic instruments, per-stage search histograms,
	// pipeline distance counters, and the slow-query log. Recording
	// touches atomics only.
	reg        *obs.Registry
	eps        [numEndpoints]metrics
	stage      [numStages]*obs.Histogram
	embedDist  *obs.Counter
	refineDist *obs.Counter
	slow       *obs.SlowLog
	// selMu guards selGauges, the per-metadata-field selectivity gauges
	// registered lazily from the scrape hook as traffic references fields.
	selMu     sync.Mutex
	selGauges map[string]*obs.Gauge

	// sem is the in-flight gate for work endpoints (nil = unbounded);
	// panics/timeouts count the resilience middleware's interventions,
	// surfaced under /v1/stats, /readyz, and /metrics.
	sem      chan struct{}
	panics   *obs.Counter
	timeouts *obs.Counter

	httpSrv *http.Server
}

// New wraps st in an HTTP server. decode turns the raw JSON of a "query"
// or "object" field into a domain object; it should validate and return
// an error for objects the distance function cannot handle (the error
// text is surfaced to the client with status 400).
func New[T any](st store.Backend[T], decode func(json.RawMessage) (T, error), opts Options) *Server[T] {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBody
	}
	if opts.BatchLimit <= 0 {
		opts.BatchLimit = DefaultBatchLimit
	}
	s := &Server[T]{st: st, decode: decode, opts: opts, start: time.Now()}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	s.initObs()
	// The http.Server is created here, not lazily in Serve, so Shutdown
	// is race-free against a Serve running on another goroutine (and so
	// one Shutdown stops every listener handed to Serve).
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the route table. It is safe to serve from multiple
// listeners at once.
func (s *Server[T]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.instrument(epSearch, gated, s.handleSearch))
	mux.HandleFunc("POST /v1/search/batch", s.instrument(epSearchBatch, gated, s.handleSearchBatch))
	mux.HandleFunc("POST /v1/objects", s.instrument(epAdd, gated, s.handleAdd))
	mux.HandleFunc("PUT /v1/objects/{id}", s.instrument(epUpsert, gated, s.handleUpsert))
	mux.HandleFunc("DELETE /v1/objects/{id}", s.instrument(epRemove, gated, s.handleRemove))
	mux.HandleFunc("GET /v1/stats", s.instrument(epStats, ungated, s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument(epHealth, ungated, s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument(epReady, ungated, s.handleReady))
	mux.HandleFunc("GET /metrics", s.instrument(epMetrics, ungated, s.reg.ServeHTTP))
	mux.HandleFunc("GET /v1/debug/slow", s.instrument(epDebugSlow, ungated, s.handleDebugSlow))
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server[T]) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server[T]) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully drains in-flight requests (bounded by ctx) and
// closes every listener.
func (s *Server[T]) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// statusRecorder captures the response status for error accounting, and
// whether anything reached the wire — the panic handler may only write a
// clean 500 while the response is still unstarted.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Whether an endpoint passes through the in-flight gate. Probes and
// stats never do: an operator must be able to observe a saturated
// server, and a load balancer must get its readiness answer precisely
// when the server is busiest.
const (
	gated   = true
	ungated = false
)

// instrument wraps a handler with body bounding, traffic accounting,
// load shedding, and panic recovery. A panicking handler is answered
// with a 500 (when the response has not started; a mid-stream panic can
// only be aborted) and counted — one bad request must never kill the
// connection, let alone the process.
func (s *Server[T]) instrument(ep endpoint, gate bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		m := &s.eps[ep]
		if gate && s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				// Shed: its own counter only. A 429 takes ~0ns, so letting
				// it into the served request/latency series would drag the
				// average down exactly when the server is saturated.
				m.shed.Inc()
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, "server at max in-flight requests (%d)", s.opts.MaxInFlight)
				return
			}
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				if !rec.wrote {
					writeErr(rec, http.StatusInternalServerError, "internal error")
				}
				rec.status = http.StatusInternalServerError
			}
			m.requests.Inc()
			if rec.status >= 400 {
				m.errors.Inc()
			}
			m.latency.Observe(time.Since(t0).Nanoseconds())
		}()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		}
		h(rec, r)
	}
}

// runDeadline runs compute under the server's search deadline. compute
// must only fill captured variables and never touch the ResponseWriter:
// on timeout the request goroutine answers 504 and moves on while the
// computation is abandoned (it finishes into thin air; store reads are
// lock-free, so it holds nothing anyone waits for). A panic inside
// compute is re-raised on the request goroutine so the recovery
// middleware counts it; a panic raised after abandonment has no request
// to fail and is dropped with the result.
func (s *Server[T]) runDeadline(w http.ResponseWriter, compute func()) bool {
	if s.opts.SearchTimeout <= 0 {
		compute()
		return true
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		compute()
	}()
	t := time.NewTimer(s.opts.SearchTimeout)
	defer t.Stop()
	select {
	case p := <-done:
		if p != nil {
			panic(p)
		}
		return true
	case <-t.C:
		s.timeouts.Inc()
		writeErr(w, http.StatusGatewayTimeout, "search exceeded the %v deadline", s.opts.SearchTimeout)
		return false
	}
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readBody decodes the request body into dst, translating the failure
// modes into the right status codes: 413 for an oversized body, 400 for
// malformed or unknown-field JSON.
func readBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// searchRequest is the body of /v1/search. Exactly one of Query (an
// inline object in the dataset's JSON encoding) or ID (a stored object's
// stable ID) must be set. P defaults to 10·K. Debug additionally
// returns the per-stage timing breakdown inside stats; it never changes
// which results come back.
type searchRequest struct {
	Query json.RawMessage `json:"query,omitempty"`
	ID    *uint64         `json:"id,omitempty"`
	K     int             `json:"k"`
	P     int             `json:"p,omitempty"`
	// Filter is an optional predicate over object metadata (see
	// meta.CompileFilter for the grammar). It restricts which objects are
	// candidates at all — evaluated below the top-p cut, so a selective
	// filter cannot starve the candidate set. null and absent mean
	// unfiltered.
	Filter json.RawMessage `json:"filter,omitempty"`
	Debug  bool            `json:"debug,omitempty"`
}

// compileFilter turns a request's raw filter into a predicate, mapping
// every compile failure (bad shape, unknown field, kind mismatch) to a
// 400 — the filter is client input, never a server fault.
func (s *Server[T]) compileFilter(w http.ResponseWriter, raw json.RawMessage) (*meta.Predicate, bool) {
	pred, err := s.st.CompileFilter(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid filter: %v", err)
		return nil, false
	}
	return pred, true
}

type resultJSON struct {
	ID       uint64  `json:"id"`
	Distance float64 `json:"distance"`
}

type statsJSON struct {
	EmbedDistances  int `json:"embed_distances"`
	RefineDistances int `json:"refine_distances"`
	// Timing is present only when the request set debug.
	Timing *timingJSON `json:"timing,omitempty"`
}

type searchResponse struct {
	Results []resultJSON `json:"results"`
	Stats   statsJSON    `json:"stats"`
}

// checkKP applies the shared parameter rules and the P default.
func checkKP(w http.ResponseWriter, k, p int) (int, bool) {
	if k <= 0 {
		writeErr(w, http.StatusBadRequest, "k = %d, want > 0", k)
		return 0, false
	}
	if p == 0 {
		p = 10 * k
	}
	if p < k {
		writeErr(w, http.StatusBadRequest, "p = %d must be >= k = %d", p, k)
		return 0, false
	}
	return p, true
}

// resolveQuery turns a searchRequest's query-or-ID into a domain object.
func (s *Server[T]) resolveQuery(w http.ResponseWriter, query json.RawMessage, id *uint64) (T, bool) {
	var zero T
	switch {
	case id != nil && query != nil:
		writeErr(w, http.StatusBadRequest, "set either query or id, not both")
		return zero, false
	case id != nil:
		q, ok := s.st.Get(*id)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown object id %d", *id)
			return zero, false
		}
		return q, true
	case query != nil:
		q, err := s.decode(query)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid query: %v", err)
			return zero, false
		}
		return q, true
	default:
		writeErr(w, http.StatusBadRequest, "missing query (or id)")
		return zero, false
	}
}

func toJSONResults(rs []store.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{ID: r.ID, Distance: r.Distance}
	}
	return out
}

func toJSONStats(st retrieval.Stats, debug bool) statsJSON {
	out := statsJSON{EmbedDistances: st.EmbedDistances, RefineDistances: st.RefineDistances}
	if debug {
		out.Timing = toTimingJSON(st.Timing)
	}
	return out
}

func (s *Server[T]) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !readBody(w, r, &req) {
		return
	}
	p, ok := checkKP(w, req.K, req.P)
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, req.Query, req.ID)
	if !ok {
		return
	}
	pred, ok := s.compileFilter(w, req.Filter)
	if !ok {
		return
	}
	var (
		res []store.Result
		st  retrieval.Stats
		err error
	)
	if !s.runDeadline(w, func() { res, st, err = s.st.SearchFiltered(q, req.K, p, pred) }) {
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.observeSearch(st)
	s.noteSlow(epSearch, req.K, p, 0, st)
	writeJSON(w, http.StatusOK, searchResponse{Results: toJSONResults(res), Stats: toJSONStats(st, req.Debug)})
}

// batchRequest is the body of /v1/search/batch. Filter applies to every
// query in the batch.
type batchRequest struct {
	Queries []json.RawMessage `json:"queries"`
	K       int               `json:"k"`
	P       int               `json:"p,omitempty"`
	Filter  json.RawMessage   `json:"filter,omitempty"`
	Debug   bool              `json:"debug,omitempty"`
}

type batchResponse struct {
	Results [][]resultJSON `json:"results"`
	Stats   []statsJSON    `json:"stats"`
}

func (s *Server[T]) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !readBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "empty query batch")
		return
	}
	if len(req.Queries) > s.opts.BatchLimit {
		writeErr(w, http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(req.Queries), s.opts.BatchLimit)
		return
	}
	p, ok := checkKP(w, req.K, req.P)
	if !ok {
		return
	}
	queries := make([]T, len(req.Queries))
	for i, raw := range req.Queries {
		q, err := s.decode(raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid query %d: %v", i, err)
			return
		}
		queries[i] = q
	}
	pred, ok := s.compileFilter(w, req.Filter)
	if !ok {
		return
	}
	var (
		res [][]store.Result
		sts []retrieval.Stats
		err error
	)
	if !s.runDeadline(w, func() { res, sts, err = s.st.SearchBatchFiltered(queries, req.K, p, pred) }) {
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := batchResponse{Results: make([][]resultJSON, len(res)), Stats: make([]statsJSON, len(sts))}
	var agg retrieval.Stats
	for i := range res {
		resp.Results[i] = toJSONResults(res[i])
		resp.Stats[i] = toJSONStats(sts[i], req.Debug)
		s.observeSearch(sts[i])
		agg.EmbedDistances += sts[i].EmbedDistances
		agg.RefineDistances += sts[i].RefineDistances
		agg.Timing.Add(sts[i].Timing)
	}
	s.noteSlow(epSearchBatch, req.K, p, len(queries), agg)
	writeJSON(w, http.StatusOK, resp)
}

// addRequest is the body of /v1/objects and PUT /v1/objects/{id}.
// Metadata is an optional flat JSON object of field → scalar (see
// meta.ParseMapJSON); a PUT replaces the object's whole metadata record,
// so omitting it clears any previous metadata.
type addRequest struct {
	Object   json.RawMessage `json:"object"`
	Metadata json.RawMessage `json:"metadata,omitempty"`
}

// parseMetadata decodes a request's metadata object, answering 400 for
// malformed or non-scalar records.
func parseMetadata(w http.ResponseWriter, raw json.RawMessage) (meta.Map, bool) {
	md, err := meta.ParseMapJSON(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid metadata: %v", err)
		return nil, false
	}
	return md, true
}

type addResponse struct {
	ID uint64 `json:"id"`
}

func (s *Server[T]) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Object == nil {
		writeErr(w, http.StatusBadRequest, "missing object")
		return
	}
	x, err := s.decode(req.Object)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid object: %v", err)
		return
	}
	md, ok := parseMetadata(w, req.Metadata)
	if !ok {
		return
	}
	// The store re-validates at the embedding layer (e.g. an object that
	// embeds to the wrong dimensionality) and at the metadata registry (a
	// field written with a conflicting kind); both are still the client's
	// fault, so they surface as 400, never as a crashed request.
	id, err := s.st.AddMeta(x, md)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid object: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, addResponse{ID: id})
}

// handleUpsert serves PUT /v1/objects/{id}: atomically replace the
// object with the given stable ID (tombstone + delta append under one
// generation bump; the ID is preserved). The body is the same shape as
// POST /v1/objects. Unknown IDs are 404 — PUT replaces, it does not
// create, because IDs are allocator-issued and a client-chosen ID would
// desync the allocator.
func (s *Server[T]) handleUpsert(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid object id %q", r.PathValue("id"))
		return
	}
	var req addRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Object == nil {
		writeErr(w, http.StatusBadRequest, "missing object")
		return
	}
	x, err := s.decode(req.Object)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid object: %v", err)
		return
	}
	md, ok := parseMetadata(w, req.Metadata)
	if !ok {
		return
	}
	if err := s.st.UpsertMeta(id, x, md); err != nil {
		if errors.Is(err, store.ErrUnknownID) {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		// Anything else the store rejects (e.g. wrong embedding width
		// behind the decoder's back) is the client's object, not a server
		// failure.
		writeErr(w, http.StatusBadRequest, "invalid object: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, addResponse{ID: id})
}

func (s *Server[T]) handleRemove(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid object id %q", r.PathValue("id"))
		return
	}
	if err := s.st.Remove(id); err != nil {
		if errors.Is(err, store.ErrUnknownID) {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"removed": id})
}

// endpointStatsJSON is one endpoint's row in /v1/stats. Latency fields
// cover served requests only; sheds are counted separately and never
// enter the latency series. The percentiles are estimated from the
// endpoint's log-bucketed histogram (the same buckets /metrics exports).
type endpointStatsJSON struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	Shed         uint64  `json:"shed"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	P50LatencyUs float64 `json:"p50_latency_us"`
	P90LatencyUs float64 `json:"p90_latency_us"`
	P99LatencyUs float64 `json:"p99_latency_us"`
	QPS          float64 `json:"qps"`
}

type storeStatsJSON struct {
	Size       int    `json:"size"`
	Dims       int    `json:"dims"`
	Generation uint64 `json:"generation"`
	NextID     uint64 `json:"next_id"`
	// Segment layout: how much of the store sits in the immutable base,
	// how much in the append-only delta, and how many rows are tombstoned
	// awaiting compaction. size = base_size + delta_size - tombstones.
	// For a sharded store these are sums over the shards.
	BaseSize    int    `json:"base_size"`
	DeltaSize   int    `json:"delta_size"`
	Tombstones  int    `json:"tombstones"`
	Compactions uint64 `json:"compactions"`
	// Shards is the shard count (1 for an unsharded store).
	Shards int `json:"shards"`
	// Persistence/compaction depth: duration of the most recent
	// compaction (the worst shard pause for a sharded store), duration
	// and bytes of the most recent snapshot (incremental saves write
	// bytes proportional to the dirty delta, not the store), and the
	// measured share of filter-scan work spent on delta rows and
	// tombstones — the signal the background compactor schedules on.
	LastCompactionUs float64 `json:"last_compaction_us"`
	LastSnapshotUs   float64 `json:"last_snapshot_us"`
	LastSnapshotB    int64   `json:"last_snapshot_bytes"`
	DeltaScanShare   float64 `json:"delta_scan_share"`
	// Durability health: failed snapshot attempts, the most recent
	// failure ("" after a success), the Unix time of the last successful
	// snapshot, and the lifecycle's degraded-persistence flag (see
	// store.Stats).
	SnapshotFailures    uint64 `json:"snapshot_failures"`
	LastSnapshotError   string `json:"last_snapshot_error,omitempty"`
	LastSnapshotOKUnix  int64  `json:"last_snapshot_ok_unix"`
	DegradedPersistence bool   `json:"degraded_persistence"`
	// Quantized-scan health: the shadow block's bit width (8 = on,
	// 0 = off), cumulative rows screened by the seeded screen, the subset
	// whose codes its walk summed, the subset that needed an exact
	// evaluation, and the resulting prune rate (1 - exact/scanned; 0
	// before any screen runs). ShadowBytes is the resident size of the
	// shadow (base and delta codes plus the base's cluster-order map and
	// block boxes; 0 while no base clears the size gate).
	QuantBits        int     `json:"quantize_bits"`
	BoundScannedRows uint64  `json:"bound_scanned_rows"`
	BoundVisitedRows uint64  `json:"bound_visited_rows"`
	BoundExactRows   uint64  `json:"bound_exact_rows"`
	BoundPruneRate   float64 `json:"bound_prune_rate"`
	ShadowBytes      int64   `json:"shadow_bytes"`
}

// resilienceJSON is the serving-resilience section of /v1/stats: the
// middleware's interventions and the state of the in-flight gate.
type resilienceJSON struct {
	Panics      uint64 `json:"panics"`
	ShedTotal   uint64 `json:"shed_total"`
	Timeouts    uint64 `json:"timeouts"`
	InFlight    int    `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight"`
}

// shardStatsJSON is one shard's row in the sharded detail: the segment
// layout and mutation counters that differ per shard. What is global
// (dims, the ID allocator) stays on the aggregate row only.
type shardStatsJSON struct {
	Size             int     `json:"size"`
	Generation       uint64  `json:"generation"`
	BaseSize         int     `json:"base_size"`
	DeltaSize        int     `json:"delta_size"`
	Tombstones       int     `json:"tombstones"`
	Compactions      uint64  `json:"compactions"`
	LastCompactionUs float64 `json:"last_compaction_us"`
	DeltaScanShare   float64 `json:"delta_scan_share"`
}

// fieldStatJSON is one metadata field's observed selectivity row.
type fieldStatJSON struct {
	Matched     uint64  `json:"matched"`
	Scanned     uint64  `json:"scanned"`
	Selectivity float64 `json:"selectivity"`
}

// filterStatsJSON is the filter section of /v1/stats: per-field
// selectivity observations.
type filterStatsJSON struct {
	Fields map[string]fieldStatJSON `json:"fields,omitempty"`
}

type statsResponse struct {
	Store storeStatsJSON `json:"store"`
	// ShardDetail is present only for sharded stores: one row per shard,
	// in shard order.
	ShardDetail   []shardStatsJSON             `json:"shard_detail,omitempty"`
	Filter        filterStatsJSON              `json:"filter"`
	Resilience    resilienceJSON               `json:"resilience"`
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Endpoints     map[string]endpointStatsJSON `json:"endpoints"`
}

// pruneRate is the fraction of bound-screened rows excluded without an
// exact evaluation; 0 before any screen has run.
func pruneRate(scanned, exact uint64) float64 {
	if scanned == 0 {
		return 0
	}
	return 1 - float64(exact)/float64(scanned)
}

// resilience snapshots the middleware counters and gate occupancy.
func (s *Server[T]) resilience() resilienceJSON {
	var shed uint64
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		shed += s.eps[ep].shed.Value()
	}
	return resilienceJSON{
		Panics:      s.panics.Value(),
		ShedTotal:   shed,
		Timeouts:    s.timeouts.Value(),
		InFlight:    len(s.sem),
		MaxInFlight: s.opts.MaxInFlight,
	}
}

func (s *Server[T]) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	uptime := time.Since(s.start).Seconds()
	eps := make(map[string]endpointStatsJSON, numEndpoints)
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		m := &s.eps[ep]
		snap := m.latency.Snapshot()
		row := endpointStatsJSON{
			Requests: m.requests.Value(),
			Errors:   m.errors.Value(),
			Shed:     m.shed.Value(),
		}
		if snap.Count > 0 {
			row.AvgLatencyUs = float64(snap.Sum) / float64(snap.Count) / 1e3
			row.P50LatencyUs = snap.Quantile(0.50) / 1e3
			row.P90LatencyUs = snap.Quantile(0.90) / 1e3
			row.P99LatencyUs = snap.Quantile(0.99) / 1e3
		}
		if uptime > 0 {
			row.QPS = float64(row.Requests) / uptime
		}
		eps[endpointNames[ep]] = row
	}
	fs := s.st.FilterStats()
	var filter filterStatsJSON
	if len(fs.Fields) > 0 {
		filter.Fields = make(map[string]fieldStatJSON, len(fs.Fields))
		for f, fst := range fs.Fields {
			filter.Fields[f] = fieldStatJSON{Matched: fst.Matched, Scanned: fst.Scanned, Selectivity: fst.Selectivity()}
		}
	}
	var detail []shardStatsJSON
	for _, sh := range s.st.ShardStats() {
		detail = append(detail, shardStatsJSON{
			Size:             sh.Size,
			Generation:       sh.Generation,
			BaseSize:         sh.BaseSize,
			DeltaSize:        sh.DeltaSize,
			Tombstones:       sh.Tombstones,
			Compactions:      sh.Compactions,
			LastCompactionUs: float64(sh.LastCompactionNanos) / 1e3,
			DeltaScanShare:   sh.DeltaScanShare,
		})
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Store: storeStatsJSON{
			Size:                st.Size,
			Dims:                st.Dims,
			Generation:          st.Generation,
			NextID:              st.NextID,
			BaseSize:            st.BaseSize,
			DeltaSize:           st.DeltaSize,
			Tombstones:          st.Tombstones,
			Compactions:         st.Compactions,
			Shards:              st.Shards,
			LastCompactionUs:    float64(st.LastCompactionNanos) / 1e3,
			LastSnapshotUs:      float64(st.LastSnapshotNanos) / 1e3,
			LastSnapshotB:       st.LastSnapshotBytes,
			DeltaScanShare:      st.DeltaScanShare,
			SnapshotFailures:    st.SnapshotFailures,
			LastSnapshotError:   st.LastSnapshotError,
			LastSnapshotOKUnix:  st.LastSnapshotOKUnix,
			DegradedPersistence: st.DegradedPersistence,
			QuantBits:           st.QuantBits,
			BoundScannedRows:    st.BoundScannedRows,
			BoundVisitedRows:    st.BoundVisitedRows,
			BoundExactRows:      st.BoundExactRows,
			BoundPruneRate:      pruneRate(st.BoundScannedRows, st.BoundExactRows),
			ShadowBytes:         st.ShadowBytes,
		},
		ShardDetail:   detail,
		Filter:        filter,
		Resilience:    s.resilience(),
		UptimeSeconds: uptime,
		Endpoints:     eps,
	})
}

// handleHealth is pure liveness: the process is up and can answer. It
// stays 200 through degraded persistence and saturation — restarting
// the process would fix neither.
func (s *Server[T]) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "size": s.st.Size()})
}

// readyResponse is the body of /readyz.
type readyResponse struct {
	Ready               bool   `json:"ready"`
	DegradedPersistence bool   `json:"degraded_persistence"`
	Saturated           bool   `json:"saturated"`
	SnapshotFailures    uint64 `json:"snapshot_failures"`
	LastSnapshotError   string `json:"last_snapshot_error,omitempty"`
	InFlight            int    `json:"in_flight"`
	MaxInFlight         int    `json:"max_in_flight"`
	ShedTotal           uint64 `json:"shed_total"`
}

// handleReady is readiness, distinct from liveness: 503 tells a load
// balancer to rotate this instance out — because persistence is
// degraded (snapshots keep failing; the data here is at risk the moment
// the process dies) or because the in-flight gate is saturated at probe
// time — while the process itself keeps serving what it can (/v1/search
// still answers; degraded durability does not corrupt reads).
func (s *Server[T]) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	res := s.resilience()
	saturated := s.sem != nil && res.InFlight >= res.MaxInFlight
	resp := readyResponse{
		Ready:               !st.DegradedPersistence && !saturated,
		DegradedPersistence: st.DegradedPersistence,
		Saturated:           saturated,
		SnapshotFailures:    st.SnapshotFailures,
		LastSnapshotError:   st.LastSnapshotError,
		InFlight:            res.InFlight,
		MaxInFlight:         res.MaxInFlight,
		ShedTotal:           res.ShedTotal,
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
