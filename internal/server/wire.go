package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"anyk/internal/engine"
)

// Error codes returned in ErrorResponse.Error.Code. Clients should branch on
// the code, not the message.
const (
	CodeBadRequest      = "bad_request"
	CodeDatasetNotFound = "dataset_not_found"
	CodeSessionNotFound = "session_not_found"
	CodePayloadTooLarge = "payload_too_large"
	CodeInternal        = "internal"
	// CodeSessionLimit rejects a query create because the session table is at
	// its admission limit (-max-sessions) with no reclaimable sessions; 429.
	CodeSessionLimit = "session_limit"
	// CodeOverloaded rejects any request past the in-flight request cap
	// (-max-inflight); 429.
	CodeOverloaded = "overloaded"
)

// ErrorResponse is the structured error body every non-2xx response carries.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the code + human-readable message of an ErrorResponse.
// RetryAfterSeconds accompanies 429 admission rejections (mirroring the
// Retry-After header) and is absent on other errors.
type ErrorBody struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// DatasetRequest creates or regenerates a named dataset (POST /v1/datasets).
// Kind selects a generator from internal/dataset: "uniform", "worstcase",
// "bitcoin", "twitter", "i1", "i2", or "empty" (a bare database to upload CSV
// relations into).
type DatasetRequest struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Relations is ℓ, the number of generated relations R1..Rℓ (default 4).
	Relations int `json:"relations,omitempty"`
	// N is tuples per relation (uniform/worstcase) or nodes (graph kinds).
	N int `json:"n,omitempty"`
	// Domain overrides the uniform generator's domain size (default n/10).
	Domain int   `json:"domain,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// RelationInfo describes one relation of a dataset. Types lists the logical
// column types ("int64", "float64", "string") and is emitted only for
// relations with non-int64 columns, keeping int64-only responses on the v1
// shape.
type RelationInfo struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	Types []string `json:"types,omitempty"`
	Rows  int      `json:"rows"`
}

// DatasetResponse describes a dataset (creation response and list entries).
type DatasetResponse struct {
	Name      string         `json:"name"`
	Relations []RelationInfo `json:"relations"`
}

// QueryRequest opens an enumeration session (POST /v1/queries). Exactly one
// of Query (a built-in family: path<l>, star<l>, cycle<l>, cartesian<l>),
// Datalog (a single conjunctive-query string for query.Parse), or Program (a
// multi-rule Datalog program for datalog.ParseProgram: the server stratifies
// and materializes the rules over the dataset, then ranks the goal) must be
// set.
type QueryRequest struct {
	Dataset string `json:"dataset"`
	Query   string `json:"query,omitempty"`
	Datalog string `json:"datalog,omitempty"`
	Program string `json:"program,omitempty"`
	// Dioid names the ranking order: "min" (tropical, default), "max",
	// "maxtimes", "minmax", or "lex".
	Dioid string `json:"dioid,omitempty"`
	// Algorithm is a core.Algorithm name (default Take2).
	Algorithm string `json:"algorithm,omitempty"`
	// Semantics applies to queries with projections: "all" or "min".
	Semantics string `json:"semantics,omitempty"`
	// Dedup filters consecutive duplicate rows.
	Dedup bool `json:"dedup,omitempty"`
	// Parallelism requests a sharded parallel enumeration for the session:
	// 0 (default) runs serially, higher values spread the bottom-up pass and
	// the ranked enumeration (over views of the one DP graph, merged in rank
	// order) across that many workers, clamped to the server's per-session
	// cap (see Server.MaxParallelism). The response plan reports the
	// resolved shard count.
	Parallelism int `json:"parallelism,omitempty"`
}

// QueryResponse announces a new enumeration session.
type QueryResponse struct {
	ID string `json:"id"`
	// Vars is the output schema: the order of Row.Vals in NextResponse.
	Vars []string `json:"vars"`
	// Types is the logical type per output variable ("int64", "float64",
	// "string") for sessions over dictionary-encoded relations; absent for
	// int64-only sessions (wire format v1).
	Types []string `json:"types,omitempty"`
	// Trees is the number of T-DP problems the query decomposed into.
	Trees int `json:"trees"`
	// Plan reports the decomposition route ("acyclic", "simple-cycle",
	// "ghd"), its width, and for GHD plans the bag structure.
	Plan *engine.PlanInfo `json:"plan,omitempty"`
}

// SessionResponse reports the resumable state of a session
// (GET /v1/queries/{id}).
type SessionResponse struct {
	ID        string   `json:"id"`
	Query     string   `json:"query"`
	Dioid     string   `json:"dioid"`
	Algorithm string   `json:"algorithm"`
	Vars      []string `json:"vars"`
	// Types mirrors QueryResponse.Types: present only for typed sessions.
	Types []string `json:"types,omitempty"`
	Trees int      `json:"trees"`
	// Served is how many ranked rows the session has emitted so far; the next
	// page starts at rank Served+1.
	Served int  `json:"served"`
	Done   bool `json:"done"`
	// Plan is the decomposition route the session's query compiled to.
	Plan *engine.PlanInfo `json:"plan,omitempty"`
}

// WireRow is one ranked answer. Weight is a float64 for numeric dioids and a
// []float64 vector for the lexicographic dioid.
//
// Vals is wire format v2: for sessions over dictionary-encoded relations it
// is an array of logical JSON values (numbers and strings per the session's
// Types). Int64-only sessions serve the raw []relation.Value, whose JSON
// encoding is byte-identical to the v1 format — existing clients see no
// change.
type WireRow struct {
	Rank   int `json:"rank"`
	Vals   any `json:"vals"`
	Weight any `json:"weight"`
}

// NextResponse is one page of ranked answers
// (GET /v1/queries/{id}/next?k=N). Rows preserve rank order across successive
// calls; Done reports that the enumeration is exhausted (a later call returns
// zero rows and Done=true again — paging past the end is not an error).
type NextResponse struct {
	ID     string    `json:"id"`
	Rows   []WireRow `json:"rows"`
	Served int       `json:"served"`
	Done   bool      `json:"done"`
}

// MetricsResponse is the GET /v1/metrics snapshot. The plan-cache counters
// aggregate over every dataset's compiled-plan cache: hits are sessions that
// reused another session's preprocessing (plans and DP graphs), entries the
// currently memoized values. Requests/Errors and the per-route breakdown are
// folded out of the same registry the Prometheus /metrics endpoint serves.
type MetricsResponse struct {
	Requests         int64 `json:"requests"`
	Errors           int64 `json:"errors"`
	DatasetsCreated  int64 `json:"datasets_created"`
	SessionsCreated  int64 `json:"sessions_created"`
	SessionsEvicted  int64 `json:"sessions_evicted"`
	SessionsLive     int   `json:"sessions_live"`
	RowsServed       int64 `json:"rows_served"`
	PlanCacheHits    int64 `json:"plan_cache_hits"`
	PlanCacheMisses  int64 `json:"plan_cache_misses"`
	PlanCacheEntries int   `json:"plan_cache_entries"`
	// IndexEntries counts live memoized derived structures (group indexes,
	// sorted permutations, join tries) across all stored relations;
	// FilteredIndexEntries is the subset serving filtered access paths —
	// structures whose memo key carries the predicate-pushdown "flt|" marker.
	IndexEntries         int64 `json:"index_entries"`
	FilteredIndexEntries int64 `json:"filtered_index_entries"`
	// PanicsRecovered counts handler panics the middleware turned into 500s.
	PanicsRecovered int64 `json:"panics_recovered"`
	// AdmissionRejected counts requests turned away with 429 by the session
	// and in-flight limits (healthy backpressure, split by reason in the
	// Prometheus counter anykd_admission_rejected_total).
	AdmissionRejected int64 `json:"admission_rejected,omitempty"`
	// Routes breaks requests down by matched route pattern.
	Routes map[string]*RouteMetrics `json:"routes,omitempty"`
	// SessionsByAlgorithm counts opened sessions per any-k algorithm.
	SessionsByAlgorithm map[string]int64 `json:"sessions_by_algorithm,omitempty"`
}

// route returns (creating on demand) the per-route bucket for name.
func (m *MetricsResponse) route(name string) *RouteMetrics {
	if m.Routes == nil {
		m.Routes = map[string]*RouteMetrics{}
	}
	rm, ok := m.Routes[name]
	if !ok {
		rm = &RouteMetrics{}
		m.Routes[name] = rm
	}
	return rm
}

// RouteMetrics is one route's slice of the request metrics.
type RouteMetrics struct {
	Requests          int64   `json:"requests"`
	Errors            int64   `json:"errors"`
	LatencyP50Seconds float64 `json:"latency_p50_seconds"`
	LatencyP99Seconds float64 `json:"latency_p99_seconds"`
}

// SessionStatsResponse is the GET /v1/queries/{id}/stats snapshot: the
// session's phase span tree, its inter-result delay distribution, and the
// enumerator memory counters behind the paper's MEM(k) analysis.
type SessionStatsResponse struct {
	ID     string `json:"id"`
	Served int    `json:"served"`
	Done   bool   `json:"done"`
	// CandidatesInserted/MaxQueueSize are core.Stats read off the live
	// iterator: exact for serial sessions at any point and for parallel
	// sessions once drained.
	CandidatesInserted int `json:"candidates_inserted"`
	MaxQueueSize       int `json:"max_queue_size"`
	// Phases is the span tree (compile, build with per-tree children, merge,
	// first-next). Parent indexes Phases; -1 marks roots. A negative duration
	// marks a span still open at snapshot time.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// Delay summarizes the inter-result delay histogram. Delays are buffered
	// off the enumeration hot path and published in batches, so mid-stream
	// snapshots may lag by up to a few hundred rows; they are exact once the
	// session is done (or closed).
	Delay *DelayStats `json:"delay,omitempty"`
}

// PhaseSpan is one node of a session's phase span tree.
type PhaseSpan struct {
	Name            string  `json:"name"`
	Parent          int     `json:"parent"`
	StartSeconds    float64 `json:"start_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// DelayStats summarizes a session's inter-result delay histogram. Quantiles
// are nearest-rank over factor-2 log buckets, capped at the observed max.
type DelayStats struct {
	Count       uint64  `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// writeJSON writes v with the given status; encoding failures are reported on
// the connection only via the already-sent status, so v must be encodable.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a structured ErrorResponse.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: msg}})
}

// writeRejected writes a structured 429 with a Retry-After header, so clients
// and load generators can distinguish backpressure from hard failure.
func writeRejected(w http.ResponseWriter, code, msg string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error: ErrorBody{Code: code, Message: msg, RetryAfterSeconds: retryAfter}})
}
