// Package server exposes ranked any-k enumeration over HTTP with resumable
// enumeration sessions — the paper's "optimal time-to-first result, then more
// on demand" contract as a paginated API.
//
//	POST   /v1/datasets                         generate/replace a named dataset
//	GET    /v1/datasets                         list datasets
//	POST   /v1/datasets/{name}/relations/{rel}  upload a CSV relation
//	POST   /v1/queries                          open an enumeration session
//	GET    /v1/queries/{id}                     session status (paging cursor)
//	GET    /v1/queries/{id}/next?k=N            next N ranked rows
//	GET    /v1/queries/{id}/stats               per-session phase/delay trace
//	DELETE /v1/queries/{id}                     close a session
//	GET    /v1/metrics                          counters snapshot (JSON)
//	GET    /metrics                             Prometheus text exposition
//	GET    /healthz                             liveness
//
// Sessions hold the underlying any-k iterator, so a client pages through
// results lazily instead of draining everything; sessions expire on a TTL and
// the table is LRU-bounded (see Manager).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"anyk/internal/dataset"
	"anyk/internal/engine"
	"anyk/internal/obs"
	"anyk/internal/relation"
)

// maxPageK caps how many rows one next call may request, bounding per-request
// work and response size; page repeatedly for more.
const maxPageK = 100_000

// maxUploadBytes caps CSV upload bodies.
const maxUploadBytes = 256 << 20

// wirePagePool recycles []WireRow page buffers across handleNext calls. A
// buffer is borrowed for the duration of one request and returned only after
// writeJSON has fully encoded the response, so nothing aliases it once pooled;
// elements are cleared on return so pooled pages do not pin row values.
var wirePagePool = sync.Pool{New: func() any {
	p := make([]WireRow, 0, 64)
	return &p
}}

// defaultMaxParallelism is the per-session parallelism cap when the Server
// does not set one: high enough for a single heavy session to use a modern
// machine, low enough that a handful of concurrent sessions cannot pile up
// unbounded goroutines.
const defaultMaxParallelism = 8

// datasetEntry is one registry slot: the copy-on-write database plus its
// compiled-plan cache. The cache object survives dataset replacement (its
// counters are service-lifetime metrics) but is purged whenever the slot's
// database changes, since every cached entry is keyed to a dead version at
// that point.
type datasetEntry struct {
	db    *relation.DB
	cache *engine.Cache
}

// Server is the HTTP query service: named datasets plus the session table.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*datasetEntry

	Sessions *Manager
	Log      *slog.Logger
	// Reg is the server's metric registry: every counter, gauge, and
	// histogram behind /metrics and /v1/metrics. New wires the session and
	// plan-cache gauges; handlers register labeled members lazily.
	Reg *obs.Registry
	// MaxParallelism caps the per-session parallelism clients may request
	// (requests above it are clamped, not rejected). 0 uses
	// defaultMaxParallelism; set before serving.
	MaxParallelism int

	// MaxSessions is the admission limit on live sessions: query creates past
	// it are rejected with 429 (code "session_limit") after drained and
	// expired sessions have been reclaimed — live sessions are never evicted
	// to admit new ones. 0 disables admission control (the Manager's LRU
	// capacity still bounds the table). Set before serving.
	MaxSessions int
	// MaxInflight caps concurrently executing requests; excess requests get
	// 429 (code "overloaded") instead of queueing. Health and metrics
	// endpoints are exempt so the service stays observable under overload.
	// 0 disables the cap. Set before serving.
	MaxInflight int

	// inflight is the request-concurrency semaphore, created lazily on the
	// first instrumented request so MaxInflight set after New still applies.
	inflight     chan struct{}
	inflightOnce sync.Once

	// Hot-path counters, resolved once in New so handlers skip the registry's
	// get-or-create lock per row page.
	rowsServed      *obs.Counter
	datasetsCreated *obs.Counter
}

// maxParallelism resolves the per-session cap.
func (s *Server) maxParallelism() int {
	if s.MaxParallelism > 0 {
		return s.MaxParallelism
	}
	return defaultMaxParallelism
}

// New returns a Server using the given session manager. A nil logger
// discards request logs.
func New(sessions *Manager, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	s := &Server{
		datasets:        map[string]*datasetEntry{},
		Sessions:        sessions,
		Log:             logger,
		Reg:             reg,
		rowsServed:      reg.Counter("anykd_rows_served_total", "Ranked result rows served across all sessions."),
		datasetsCreated: reg.Counter("anykd_datasets_created_total", "Datasets created or replaced."),
	}
	// Session-table and plan-cache metrics read live state at scrape time
	// instead of shadowing it in a second set of counters.
	reg.GaugeFunc("anykd_sessions_live", "Enumeration sessions currently held.",
		func() float64 { return float64(sessions.Len()) })
	reg.CounterFunc("anykd_sessions_created_total", "Enumeration sessions ever created.",
		func() float64 { return float64(sessions.Created()) })
	reg.CounterFunc("anykd_sessions_evicted_total", "Sessions removed by TTL or LRU eviction.",
		func() float64 { return float64(sessions.Evicted()) })
	reg.CounterFunc("anykd_plan_cache_hits_total", "Compiled-plan cache hits, summed over datasets.",
		func() float64 { return float64(s.cacheStats().Hits) })
	reg.CounterFunc("anykd_plan_cache_misses_total", "Compiled-plan cache misses, summed over datasets.",
		func() float64 { return float64(s.cacheStats().Misses) })
	reg.GaugeFunc("anykd_plan_cache_entries", "Live compiled-plan cache entries, summed over datasets.",
		func() float64 { return float64(s.cacheStats().Entries) })
	// Resource-accounting gauges: what the process is holding, read live at
	// scrape time. Session counts split by lifecycle state; buffered rows are
	// the ranked results already pulled through live iterators.
	reg.GaugeFunc("anykd_sessions_by_state", "Live sessions by lifecycle state.",
		func() float64 { a, _ := sessions.StateCounts(); return float64(a) }, "state", "active")
	reg.GaugeFunc("anykd_sessions_by_state", "Live sessions by lifecycle state.",
		func() float64 { _, d := sessions.StateCounts(); return float64(d) }, "state", "drained")
	reg.GaugeFunc("anykd_sessions_buffered_rows", "Ranked rows emitted so far, summed over live sessions.",
		func() float64 { return float64(sessions.BufferedRows()) })
	reg.GaugeFunc("anykd_datasets", "Registered datasets.",
		func() float64 { return float64(s.resourceStats().datasets) })
	reg.GaugeFunc("anykd_dataset_rows", "Stored relation rows, summed over datasets (aliases counted once).",
		func() float64 { return float64(s.resourceStats().rows) })
	reg.GaugeFunc("anykd_dataset_bytes", "Estimated resident bytes of stored relations.",
		func() float64 { return float64(s.resourceStats().bytes) })
	reg.GaugeFunc("anykd_dict_entries", "Dictionary-encoded values held, by kind.",
		func() float64 { return float64(s.resourceStats().dictStrings) }, "kind", "string")
	reg.GaugeFunc("anykd_dict_entries", "Dictionary-encoded values held, by kind.",
		func() float64 { return float64(s.resourceStats().dictFloats) }, "kind", "float")
	reg.GaugeFunc("anykd_index_entries", "Live memoized derived structures (indexes, permutations, tries) over stored relations.",
		func() float64 { return float64(s.resourceStats().indexEntries) })
	reg.GaugeFunc("anykd_filtered_index_entries", "Memoized derived structures serving filtered (predicate-pushdown) access paths.",
		func() float64 { return float64(s.resourceStats().filteredIndexEntries) })
	// Lifecycle logging for evictions: the manager fires this under its lock,
	// so it must stay log-only.
	if sessions.OnEvict == nil {
		sessions.OnEvict = func(sess *Session, reason string) {
			s.Log.Info("session evicted", "id", sess.ID, "reason", reason,
				"served", sess.Served(), "age", time.Since(sess.CreatedAt()).Round(time.Millisecond))
		}
	}
	return s
}

// resourceFootprint aggregates the dataset registry's resident state for the
// resource gauges.
type resourceFootprint struct {
	datasets             int
	rows                 int64
	bytes                int64
	dictStrings          int64
	dictFloats           int64
	indexEntries         int64
	filteredIndexEntries int64
}

// resourceStats walks the dataset registry, counting aliased relations and
// shared dictionaries once (by pointer identity).
func (s *Server) resourceStats() resourceFootprint {
	var f resourceFootprint
	seenRel := map[*relation.Relation]bool{}
	seenDict := map[*relation.Dictionary]bool{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	f.datasets = len(s.datasets)
	for _, entry := range s.datasets {
		for _, name := range entry.db.Names() {
			rel := entry.db.Relation(name)
			if seenRel[rel] {
				continue
			}
			seenRel[rel] = true
			f.rows += int64(rel.Size())
			f.bytes += rel.SizeBytes()
			total, filtered := rel.IndexEntries()
			f.indexEntries += total
			f.filteredIndexEntries += filtered
		}
		if d := entry.db.Dict(); d != nil && !seenDict[d] {
			seenDict[d] = true
			strs, floats := d.Len()
			f.dictStrings += int64(strs)
			f.dictFloats += int64(floats)
		}
	}
	return f
}

// cacheStats aggregates the per-dataset compiled-plan cache counters.
func (s *Server) cacheStats() engine.CacheStats {
	var cs engine.CacheStats
	s.mu.RLock()
	for _, entry := range s.datasets {
		st := entry.cache.Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Entries += st.Entries
	}
	s.mu.RUnlock()
	return cs
}

// swapDataset installs db under name, reusing the slot's cache object (purged
// — all its entries are keyed to the previous version) or creating one for a
// new slot. Callers must hold s.mu.
func (s *Server) swapDataset(name string, db *relation.DB) {
	if old, ok := s.datasets[name]; ok {
		old.cache.Purge()
		s.datasets[name] = &datasetEntry{db: db, cache: old.cache}
		return
	}
	s.datasets[name] = &datasetEntry{db: db, cache: engine.NewCache(0)}
}

// Handler returns the routed HTTP handler with logging/metrics middleware
// applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets/{name}/relations/{rel}", s.handleUploadRelation)
	mux.HandleFunc("POST /v1/queries", s.handleCreateQuery)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleGetSession)
	mux.HandleFunc("GET /v1/queries/{id}/next", s.handleNext)
	mux.HandleFunc("GET /v1/queries/{id}/stats", s.handleSessionStats)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleDeleteSession)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s.instrument(mux)
}

// statusWriter records the response status for the request log and metrics.
//
// Wrapping pitfall: embedding http.ResponseWriter forwards only that
// interface's three methods. Whether the wrapper satisfies the *optional*
// interfaces the underlying writer implements (http.Flusher, io.ReaderFrom,
// http.Hijacker, ...) is decided by the wrapper's own method set, so the
// plain embed silently strips them — a streaming handler's Flush calls, for
// example, would become no-ops the moment the middleware wraps the writer.
// Flush is therefore forwarded explicitly, and Unwrap exposes the underlying
// writer so http.NewResponseController can discover the rest.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true // an unpreceded Write implies the recorded 200
	return w.ResponseWriter.Write(p)
}

// Flush passes through to the underlying writer's http.Flusher, if any.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// optional capabilities (deadlines, hijacking) through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel is the bounded-cardinality route label for request metrics: the
// matched ServeMux pattern, never the raw path (which would mint a label
// value per session id).
func routeLabel(r *http.Request) string {
	if r.Pattern != "" {
		return r.Pattern
	}
	return "unmatched"
}

// ctxKeyRequestID carries the request id through the handler chain.
type ctxKeyRequestID struct{}

// requestID returns the id the middleware assigned to r ("" outside it).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID{}).(string)
	return id
}

// exemptFromInflight lists the endpoints the in-flight cap never rejects:
// liveness and metrics must stay reachable precisely when the service is
// saturated, or overload would blind the monitoring that explains it.
func exemptFromInflight(path string) bool {
	return path == "/healthz" || path == "/metrics" || path == "/v1/metrics"
}

// instrument wraps h with request-id assignment, the in-flight admission
// cap, panic recovery, per-route request counting, a per-route latency
// histogram, and structured request logging. Metrics are recorded after
// ServeHTTP returns, when the mux has stamped r.Pattern.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Propagate the caller's X-Request-Id or mint one, so every log line
		// and lifecycle event for this request shares a grep key.
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = newID()[:16]
		}
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, reqID))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		// In-flight cap: try-acquire, never queue — under overload a fast 429
		// with Retry-After beats an unbounded goroutine pileup.
		if s.MaxInflight > 0 && !exemptFromInflight(r.URL.Path) {
			s.inflightOnce.Do(func() { s.inflight = make(chan struct{}, s.MaxInflight) })
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.Reg.Counter("anykd_admission_rejected_total",
					"Requests rejected with 429 by admission control, by reason.",
					"reason", "inflight").Inc()
				s.Reg.Counter("anykd_http_requests_total", "HTTP requests served.",
					"route", "rejected", "code", "429").Inc()
				s.Log.Warn("request rejected: in-flight cap", "request_id", reqID,
					"path", r.URL.Path, "max_inflight", s.MaxInflight)
				writeRejected(sw, CodeOverloaded,
					fmt.Sprintf("server is at its in-flight request cap (%d)", s.MaxInflight), 1)
				return
			}
		}
		defer func() {
			route := routeLabel(r)
			if rec := recover(); rec != nil {
				s.Reg.Counter("anykd_http_panics_total", "Handler panics recovered by the middleware.",
					"route", route).Inc()
				s.Log.Error("panic in handler", "route", route, "path", r.URL.Path, "panic", rec)
				if !sw.wroteHeader {
					writeError(sw, http.StatusInternalServerError, CodeInternal, "internal server error")
				} else {
					sw.status = http.StatusInternalServerError // reflect the failure in metrics
				}
			}
			s.Reg.Counter("anykd_http_requests_total", "HTTP requests served.",
				"route", route, "code", strconv.Itoa(sw.status)).Inc()
			s.Reg.Histogram("anykd_http_request_seconds", "HTTP request latency by route.",
				"route", route).Observe(time.Since(start).Seconds())
			s.Log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", sw.status,
				"duration", time.Since(start),
				"request_id", reqID,
			)
		}()
		h.ServeHTTP(sw, r)
	})
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// buildDataset runs the internal/dataset generator named by req.Kind with
// the request's defaults applied.
func buildDataset(req *DatasetRequest) (*relation.DB, error) {
	l := req.Relations
	if l < 1 {
		l = 4
	}
	n := req.N
	if n < 1 {
		n = 1000
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	return dataset.Build(req.Kind, l, n, req.Domain, seed)
}

// describe summarizes db for wire responses. Aliased relations (self-join
// datasets) are reported once per name, like db.Names.
func describe(name string, db *relation.DB) DatasetResponse {
	resp := DatasetResponse{Name: name, Relations: []RelationInfo{}}
	for _, rn := range db.Names() {
		rel := db.Relation(rn)
		resp.Relations = append(resp.Relations, describeRelation(rn, rel))
	}
	return resp
}

// describeRelation renders one relation's wire description; the logical
// column types appear only when some column is dictionary-encoded, keeping
// int64-only responses on the v1 shape.
func describeRelation(name string, rel *relation.Relation) RelationInfo {
	info := RelationInfo{Name: name, Attrs: rel.Attrs, Rows: rel.Size()}
	if rel.HasEncodedCols() {
		info.Types = make([]string, rel.Arity())
		for i := range info.Types {
			info.Types[i] = rel.ColType(i).String()
		}
	}
	return info
}

// wireTypes renders a session's logical output schema for the wire: one type
// name per output variable for typed sessions, nil (omitted) for int64-only
// ones.
func wireTypes(it Iter) []string {
	if !it.Typed() {
		return nil
	}
	ts := it.VarTypes()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req DatasetRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "dataset name is required")
		return
	}
	db, err := buildDataset(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Describe before registering: once db is in the table a concurrent
	// upload may mutate it.
	resp := describe(req.Name, db)
	s.mu.Lock()
	s.swapDataset(req.Name, db)
	s.mu.Unlock()
	s.datasetsCreated.Inc()
	s.Log.Info("dataset created", "name", req.Name, "kind", req.Kind)
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]DatasetResponse, 0, len(names))
	for _, n := range names {
		out = append(out, describe(n, s.datasets[n].db))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleUploadRelation ingests a CSV body (see relation.LoadCSVTyped for the
// format) as relation {rel} of dataset {name}, creating the dataset if it
// does not exist. ?attrs=A,B declares the schema; without it the arity is
// inferred from the first data row. Column types are sniffed per column
// (int64 ⊂ float64 ⊂ string) and non-int64 columns are dictionary-encoded,
// so string- and float-valued datasets are servable while the enumeration
// core keeps its dense int64 domain.
func (s *Server) handleUploadRelation(w http.ResponseWriter, r *http.Request) {
	name, relName := r.PathValue("name"), r.PathValue("rel")
	attrs := r.URL.Query().Get("attrs")
	// MaxBytesReader (unlike a plain LimitReader) errors the read past the
	// cap, so an oversized upload is rejected instead of silently truncated.
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	// One streaming pass encodes into a *scratch* dictionary: nothing is
	// interned into the live dataset's dictionary unless the entire body
	// parses, so a failed upload cannot grow it.
	dict := relation.NewDictionary()
	var rel *relation.Relation
	var err error
	if attrs != "" {
		rel, err = relation.LoadCSVTyped(body, dict, relName, strings.Split(attrs, ",")...)
	} else {
		rel, err = relation.LoadCSVAutoTyped(body, dict, relName)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Sprintf("upload exceeds %d bytes", maxUploadBytes))
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Copy-on-write: registered DBs are never mutated, so readers (query
	// opens mid-enumeration-build) need no lock beyond the map lookup. The
	// clone carries a fresh DB identity and version, so compiled plans keyed
	// to the previous contents can never be replayed against the new ones;
	// swapDataset additionally purges them to release the memory now.
	//
	// A typed relation still carries scratch codes, which must be re-based
	// onto the dictionary of the database it actually lands in. Re-encoding
	// a large relation is too slow for the registry lock, so it runs outside
	// it and the install re-checks — the loop converges because dataset
	// replacements are rare one-off events, and each pass re-encodes against
	// the latest dictionary.
	for {
		s.mu.Lock()
		entry, ok := s.datasets[name]
		var db *relation.DB
		switch {
		case ok:
			db = entry.db.Clone()
		case rel.HasEncodedCols():
			// Fresh dataset: adopt the scratch dictionary as its dictionary
			// instead of re-encoding into an empty one.
			db = relation.NewDBWithDict(rel.Dict)
		default:
			db = relation.NewDB()
		}
		if !rel.HasEncodedCols() || rel.Dict == db.Dict() {
			db.AddRelation(rel)
			s.swapDataset(name, db)
			s.mu.Unlock()
			break
		}
		target := db.Dict()
		s.mu.Unlock()
		rebased, err := rel.Reencode(target) // append-only dict: safe outside the lock
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		rel = rebased
	}
	s.Log.Info("relation uploaded", "dataset", name, "relation", relName, "rows", rel.Size())
	writeJSON(w, http.StatusCreated, describeRelation(rel.Name, rel))
}

func (s *Server) handleCreateQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.mu.RLock()
	entry, ok := s.datasets[req.Dataset]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeDatasetNotFound, fmt.Sprintf("dataset %q not found", req.Dataset))
		return
	}
	// Admission gate, checked before the expensive iterator build: reclaim
	// drained/expired sessions, then reject — never evict a live session to
	// make room for a new one.
	if s.MaxSessions > 0 && !s.Sessions.Admit(s.MaxSessions) {
		s.Reg.Counter("anykd_admission_rejected_total",
			"Requests rejected with 429 by admission control, by reason.",
			"reason", "sessions").Inc()
		s.Log.Warn("query rejected: session limit", "request_id", requestID(r),
			"dataset", req.Dataset, "max_sessions", s.MaxSessions)
		writeRejected(w, CodeSessionLimit,
			fmt.Sprintf("session table is at its admission limit (%d); retry after a session drains or expires", s.MaxSessions), 1)
		return
	}
	// entry.db is safe to read lock-free for however long the enumeration
	// build takes: uploads replace the registered DB (copy-on-write), never
	// mutate it. The per-dataset cache lets sessions over the same version
	// share the compiled plan and DP graphs.
	o, err := openIter(entry.db, entry.cache, &req, s.maxParallelism())
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	sess := s.Sessions.Create(o.it, o.name, o.dioid, o.alg.String())
	// The session is already reachable by id, so its trace installs under Mu.
	sess.Mu.Lock()
	sess.Trace = o.trace
	sess.Mu.Unlock()
	s.Reg.Counter("anykd_sessions_opened_total", "Sessions opened, by any-k algorithm.",
		"algorithm", o.alg.String()).Inc()
	s.Log.Info("session created", "id", sess.ID, "request_id", requestID(r),
		"query", sess.Query, "dioid", sess.Dioid, "algorithm", sess.Algorithm)
	if s.Log.Enabled(r.Context(), slog.LevelDebug) {
		// Mirror the compile/build/merge spans into the structured log at -v,
		// so phase timings are greppable without hitting the stats endpoint.
		for _, sp := range o.trace.Snapshot().Spans {
			s.Log.Debug("span", "session", sess.ID, "name", sp.Name,
				"start_s", sp.StartSeconds, "duration_s", sp.DurationSeconds)
		}
	}
	writeJSON(w, http.StatusCreated, QueryResponse{
		ID: sess.ID, Vars: o.it.Vars(), Types: wireTypes(o.it), Trees: o.it.Trees(), Plan: o.it.Plan()})
}

// acquireSession resolves {id} or writes the structured 404.
func (s *Server) acquireSession(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess, err := s.Sessions.Acquire(id)
	if err != nil {
		if errors.Is(err, ErrSessionNotFound) {
			writeError(w, http.StatusNotFound, CodeSessionNotFound,
				fmt.Sprintf("session %q not found (unknown, expired, or evicted)", id))
		} else {
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return nil
	}
	return sess
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess := s.acquireSession(w, r)
	if sess == nil {
		return
	}
	sess.Mu.Lock()
	resp := SessionResponse{
		ID:        sess.ID,
		Query:     sess.Query,
		Dioid:     sess.Dioid,
		Algorithm: sess.Algorithm,
		Vars:      sess.It.Vars(),
		Types:     wireTypes(sess.It),
		Trees:     sess.It.Trees(),
		Served:    sess.Served(),
		Done:      sess.IsDone(),
		Plan:      sess.It.Plan(),
	}
	sess.Mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	sess := s.acquireSession(w, r)
	if sess == nil {
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		var err error
		if k, err = strconv.Atoi(raw); err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("k must be a positive integer, got %q", raw))
			return
		}
	}
	if k > maxPageK {
		k = maxPageK
	}
	sess.Mu.Lock()
	typed := sess.It.Typed()
	page := wirePagePool.Get().(*[]WireRow)
	resp := NextResponse{ID: sess.ID, Rows: (*page)[:0]}
	for len(resp.Rows) < k && !sess.IsDone() {
		// Stop between rows if the client went away or the session was
		// evicted/shut down mid-page.
		if r.Context().Err() != nil || sess.Ctx.Err() != nil {
			break
		}
		vals, weight, ok := sess.It.Next()
		if !ok {
			// Distinguish exhaustion from a close racing this page: an
			// evicted session's iterator also stops, but that stream is
			// truncated, not complete.
			if sess.Ctx.Err() == nil {
				sess.MarkDone()
				attrs := []any{"id", sess.ID, "request_id", requestID(r), "served", sess.Served(),
					"lifetime", time.Since(sess.CreatedAt()).Round(time.Millisecond)}
				if sess.Trace != nil {
					d := sess.Trace.DelaySnapshot()
					attrs = append(attrs, "delay_p50_s", d.Quantile(0.5), "delay_p99_s", d.Quantile(0.99))
				}
				s.Log.Info("session drained", attrs...)
			}
			break
		}
		rank := sess.incServed()
		if rank == 1 {
			// Time-to-first-result at the API surface: creation to the first
			// row leaving the iterator, the paper's headline metric as a
			// service-level observation.
			s.Log.Info("session first result", "id", sess.ID, "request_id", requestID(r),
				"ttf", time.Since(sess.CreatedAt()).Round(time.Microsecond))
		}
		// Wire format v2: typed sessions decode codes into logical JSON
		// values; int64-only sessions serve the raw values, byte-identical
		// to the v1 encoding.
		var wireVals any = vals
		if typed {
			wireVals = sess.It.TypedVals(vals)
		}
		resp.Rows = append(resp.Rows, WireRow{Rank: rank, Vals: wireVals, Weight: weight})
	}
	resp.Served, resp.Done = sess.Served(), sess.IsDone()
	sess.Mu.Unlock()
	s.rowsServed.Add(int64(len(resp.Rows)))
	writeJSON(w, http.StatusOK, resp)
	clear(resp.Rows)
	*page = resp.Rows[:0]
	wirePagePool.Put(page)
}

// handleSessionStats reports one session's observability snapshot: the phase
// span tree and delay histogram from its trace, plus the live MEM(k)
// counters read straight off the iterator (exact once the stream is
// drained; a parallel session mid-stream under-reports, never over-reports).
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess := s.acquireSession(w, r)
	if sess == nil {
		return
	}
	sess.Mu.Lock()
	st := sess.It.Stats()
	resp := SessionStatsResponse{
		ID:                 sess.ID,
		Served:             sess.Served(),
		Done:               sess.IsDone(),
		CandidatesInserted: st.CandidatesInserted,
		MaxQueueSize:       st.MaxQueueSize,
	}
	if sess.Trace != nil {
		snap := sess.Trace.Snapshot()
		resp.Phases = make([]PhaseSpan, len(snap.Spans))
		for i, sp := range snap.Spans {
			resp.Phases[i] = PhaseSpan{
				Name:            sp.Name,
				Parent:          sp.Parent,
				StartSeconds:    sp.StartSeconds,
				DurationSeconds: sp.DurationSeconds,
			}
		}
		if d := snap.Delays; d.Count > 0 {
			resp.Delay = &DelayStats{
				Count:       d.Count,
				MeanSeconds: d.Sum / float64(d.Count),
				P50Seconds:  d.Quantile(0.50),
				P90Seconds:  d.Quantile(0.90),
				P99Seconds:  d.Quantile(0.99),
				MaxSeconds:  d.Max,
			}
		}
	}
	sess.Mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handlePrometheus serves the registry in Prometheus text exposition format
// (version 0.0.4), hand-rolled in internal/obs — no client library.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.Reg.WritePrometheus(w); err != nil {
		s.Log.Error("writing /metrics", "err", err)
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Sessions.Remove(id) {
		writeError(w, http.StatusNotFound, CodeSessionNotFound, fmt.Sprintf("session %q not found (unknown, expired, or evicted)", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleMetrics renders the JSON counter snapshot. The top-level fields keep
// their pre-registry names and meanings; totals are folded out of the same
// registry /metrics scrapes, so the two surfaces can never disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cacheStats()
	rf := s.resourceStats()
	resp := MetricsResponse{
		DatasetsCreated:      s.datasetsCreated.Value(),
		SessionsCreated:      s.Sessions.Created(),
		SessionsEvicted:      s.Sessions.Evicted(),
		SessionsLive:         s.Sessions.Len(),
		RowsServed:           s.rowsServed.Value(),
		PlanCacheHits:        cs.Hits,
		PlanCacheMisses:      cs.Misses,
		PlanCacheEntries:     cs.Entries,
		IndexEntries:         rf.indexEntries,
		FilteredIndexEntries: rf.filteredIndexEntries,
	}
	for _, fam := range s.Reg.Snapshot() {
		switch fam.Name {
		case "anykd_http_requests_total":
			for _, smp := range fam.Samples {
				n := int64(smp.Value)
				resp.Requests += n
				route := smp.Labels["route"]
				rm := resp.route(route)
				rm.Requests += n
				if code, err := strconv.Atoi(smp.Labels["code"]); err == nil && code >= 400 {
					resp.Errors += n
					rm.Errors += n
				}
			}
		case "anykd_http_request_seconds":
			for _, smp := range fam.Samples {
				if smp.Hist == nil || smp.Hist.Count == 0 {
					continue
				}
				rm := resp.route(smp.Labels["route"])
				rm.LatencyP50Seconds = smp.Hist.Quantile(0.50)
				rm.LatencyP99Seconds = smp.Hist.Quantile(0.99)
			}
		case "anykd_http_panics_total":
			for _, smp := range fam.Samples {
				resp.PanicsRecovered += int64(smp.Value)
			}
		case "anykd_admission_rejected_total":
			for _, smp := range fam.Samples {
				resp.AdmissionRejected += int64(smp.Value)
			}
		case "anykd_sessions_opened_total":
			for _, smp := range fam.Samples {
				if resp.SessionsByAlgorithm == nil {
					resp.SessionsByAlgorithm = map[string]int64{}
				}
				resp.SessionsByAlgorithm[smp.Labels["algorithm"]] += int64(smp.Value)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
