package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"anyk/internal/core"
	"anyk/internal/relation"
	"anyk/internal/server"
)

// http_sessions drives the HTTP daemon in-process over a loopback listener.
// A job is one session: POST the path4 query, GET four pages of httpPageRows
// rows, DELETE. The dataset is uploaded as string-keyed CSV, so sessions are
// typed (wire format v2: dictionary decode on every row).
const (
	httpRelRows = 2000
	httpPages   = 4
	// httpPageRows: at 4×250 rows the enumerator's candidate queue ends
	// between 2800 and 3300 entries depending on the seed, on either side of a
	// slice-growth step at 3073, and alloc_mb comes out in two clusters 20 %
	// apart; at 4×200 every seed stays between the steps at 2049 and 3073.
	httpPageRows = 200
	// httpSessionRows is what one session reads.
	httpSessionRows = httpPages * httpPageRows
	// httpRate is phase A's fixed arrival rate in sessions/s: ISSUE 11's 150,
	// which stands because closed-loop capacity measured on the reference
	// container (375–410 sessions/s) is above 300. It never changes.
	httpRate = 150
	// httpLimitMS is the latency limit on a whole session: a session over it,
	// failed or refused counts as missing it.
	httpLimitMS = 50
	// httpClients is the number of load-generating goroutines, each with one
	// connection.
	httpClients = 2
	// httpOpenShare is the part of the window phase A (open loop) takes; the
	// rest is phase B (closed loop).
	httpOpenShare = 0.5
	// httpSlices is how many groups of sessions phase B's capacity is the
	// median over.
	httpSlices = 8
	// httpSetupsPerBreak is how many more setup_s samples are taken after the
	// first boot and after each phase.
	httpSetupsPerBreak = 3
	// httpResident is how many sessions are held open (see holdOpen)
	// when live_heap_mb is taken.
	httpResident = 256
)

// httpData is the generated CSV text of the four relations.
type httpData struct {
	rows int
	csv  [4]string
}

func genHTTPData(cfg config) httpData {
	n := cfg.size(httpRelRows, 400)
	dom := n / 10
	r := rand.New(rand.NewSource(cfg.seed))
	d := httpData{rows: n}
	for i := range d.csv {
		var sb strings.Builder
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "user-%05d,user-%05d,%s\n", r.Intn(dom), r.Intn(dom),
				strconv.FormatFloat(r.Float64()*10000, 'g', -1, 64))
		}
		d.csv[i] = sb.String()
	}
	return d
}

// typedDB ingests the CSV in-process, the way the upload handler does.
func (d httpData) typedDB() (*relation.DB, error) {
	dict := relation.NewDictionary()
	db := relation.NewDBWithDict(dict)
	for i, text := range d.csv {
		rel, err := relation.LoadCSVTyped(strings.NewReader(text), dict, fmt.Sprintf("R%d", i+1), "A1", "A2")
		if err != nil {
			return nil, err
		}
		db.AddRelation(rel)
	}
	return db, nil
}

// daemon is one booted server with its dataset uploaded.
type daemon struct {
	base   string
	mgr    *server.Manager
	srv    *http.Server
	cancel context.CancelFunc
	served chan error
	http   *http.Client
}

// client is one load-generating goroutine's view of the daemon. Response
// bodies are read into its own buffer, reused from request to request, so the
// harness's share of alloc_mb does not depend on where a body's size falls
// between a decoder's buffer-doubling steps.
type client struct {
	*daemon
	body bytes.Buffer
}

func (dm *daemon) newClient() *client { return &client{daemon: dm} }

// bootDaemon is the workload's setup: session table, server, loopback
// listener, and the four CSV uploads.
func bootDaemon(d httpData) (*daemon, error) {
	ctx, cancel := context.WithCancel(context.Background())
	mgr := server.NewManager(ctx, 4096, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	dm := &daemon{
		base:   "http://" + ln.Addr().String(),
		mgr:    mgr,
		srv:    &http.Server{Handler: server.New(mgr, nil).Handler(), ReadHeaderTimeout: 10 * time.Second},
		cancel: cancel,
		served: make(chan error, 1),
		http: &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: httpClients, MaxConnsPerHost: httpClients}},
	}
	go func() { dm.served <- dm.srv.Serve(ln) }()
	for i, text := range d.csv {
		url := fmt.Sprintf("%s/v1/datasets/bench/relations/R%d?attrs=A1,A2", dm.base, i+1)
		resp, err := dm.http.Post(url, "text/csv", strings.NewReader(text))
		if err != nil {
			dm.stop()
			return nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			dm.stop()
			return nil, fmt.Errorf("upload R%d: %s: %s", i+1, resp.Status, body)
		}
	}
	return dm, nil
}

// stop shuts the server down and returns once its serve loop has ended. A nil
// daemon (a boot that failed) has nothing to stop.
func (dm *daemon) stop() {
	if dm == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := dm.srv.Shutdown(ctx); err != nil {
		dm.srv.Close()
	}
	<-dm.served
	dm.mgr.Close()
	dm.cancel()
	dm.http.CloseIdleConnections()
}

type wirePage struct {
	Rows []struct {
		Rank   int      `json:"rank"`
		Vals   []string `json:"vals"`
		Weight float64  `json:"weight"`
	} `json:"rows"`
	Served int  `json:"served"`
	Done   bool `json:"done"`
}

// call issues one request, reads the whole response and decodes a 2xx JSON
// body into out (nil: ignore it). It returns the status code.
func (c *client) call(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		return resp.StatusCode, json.Unmarshal(c.body.Bytes(), out)
	}
	return resp.StatusCode, nil
}

var createBody = []byte(`{"dataset":"bench","query":"path4"}`)

// sessionTimes is one session job as the client saw it.
type sessionTimes struct {
	stream
	// ttf/ttk/total run from the scheduled start to the first page decoded,
	// the last page decoded, and the DELETE acknowledged.
	ttf, ttk, total time.Duration
	// done is when the DELETE was acknowledged.
	done time.Time
	ok   bool
	// live is the session table's size right after this session was created.
	live int
}

// create opens a session; anything but 201 (a 429 refusal included) is a
// failed op.
func (c *client) create() (id string, ok bool) {
	var created server.QueryResponse
	status, err := c.call(http.MethodPost, c.base+"/v1/queries", createBody, &created)
	return created.ID, err == nil && status == http.StatusCreated
}

// page fetches the next k rows of a session into s, checking status, page
// size and rank order.
func (c *client) page(id string, k int, s *stream) bool {
	var p wirePage
	status, err := c.call(http.MethodGet, fmt.Sprintf("%s/v1/queries/%s/next?k=%d", c.base, id, k), nil, &p)
	if err != nil || status != http.StatusOK || len(p.Rows) != k {
		return false
	}
	for _, row := range p.Rows {
		s.push(row.Weight)
	}
	return true
}

func (c *client) delete(id string) bool {
	status, err := c.call(http.MethodDelete, c.base+"/v1/queries/"+id, nil, nil)
	return err == nil && status/100 == 2
}

// session runs one job. sched is when it was due to start: latencies count
// from there, so a stall is charged to every session it delayed. tr, when
// set, gets one client-side span per request under a session span.
func (c *client) session(tr *tracer, op int, sched time.Time) sessionTimes {
	var st sessionTimes
	root := tr.add("bench.session", -1, op, sched, sched)
	defer func() { tr.setEnd(root, time.Now()) }()

	t := time.Now()
	id, created := c.create()
	tr.add("server.create", root, op, t, time.Now())
	if !created {
		return st
	}
	st.live = c.mgr.Len()
	pagesOK := true
	for p := 0; p < httpPages && pagesOK; p++ {
		t = time.Now()
		pagesOK = c.page(id, httpPageRows, &st.stream)
		tr.add("server.next_page", root, op, t, time.Now())
		if p == 0 {
			st.ttf = time.Since(sched)
		}
	}
	st.ttk = time.Since(sched)
	t = time.Now()
	deleted := c.delete(id)
	tr.add("server.delete", root, op, t, time.Now())
	st.done = time.Now()
	st.total = st.done.Sub(sched)
	st.ok = pagesOK && deleted
	return st
}

// httpOracle is the expected first httpPages·httpPageRows rows of path4 over
// the typed dataset, computed in-process.
func httpOracle(d httpData) (oracle, error) {
	db, err := d.typedDB()
	if err != nil {
		return oracle{}, err
	}
	op := enumOp{text: path4Text, alg: core.Take2, k: httpSessionRows}
	or, err := op.oracleFor(db, true)
	if err == nil && or.want.rows != op.k {
		err = fmt.Errorf("http dataset yields %d rows, sessions need %d", or.want.rows, op.k)
	}
	return or, err
}

// loadResult is what a load phase observed.
type loadResult struct {
	sessions  []sessionTimes
	lateMS    []float64
	begin     time.Time
	elapsed   time.Duration
	attempted int
}

// openLoop offers sessions at a fixed rate for d, whatever the server does:
// arrivals queue (the channel holds every arrival of the phase, so the
// generator never waits for a client) and each is timed from its scheduled
// start.
func (dm *daemon) openLoop(tr *tracer, rate float64, d time.Duration) loadResult {
	total := int(rate * d.Seconds())
	if total < 1 {
		total = 1
	}
	jobs := make(chan time.Time, total)
	out := make([][]sessionTimes, httpClients)
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dm.newClient()
			for sched := range jobs {
				out[c] = append(out[c], cl.session(tr, tr.nextOp(), sched))
			}
		}(c)
	}
	var res loadResult
	begin := time.Now()
	for i := 0; i < total; i++ {
		sched := begin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(sched))
		res.lateMS = append(res.lateMS, ms(time.Since(sched)))
		jobs <- sched
	}
	close(jobs)
	wg.Wait()
	res.begin = begin
	res.elapsed = time.Since(begin)
	res.attempted = total
	for c := range out {
		res.sessions = append(res.sessions, out[c]...)
	}
	return res
}

// closedLoop has each client start its next session when the previous one
// completes, for d.
func (dm *daemon) closedLoop(tr *tracer, d time.Duration) loadResult {
	out := make([][]sessionTimes, httpClients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dm.newClient()
			for time.Now().Before(deadline) {
				out[c] = append(out[c], cl.session(tr, tr.nextOp(), time.Now()))
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{begin: begin, elapsed: time.Since(begin)}
	for c := range out {
		res.sessions = append(res.sessions, out[c]...)
	}
	res.attempted = len(res.sessions)
	return res
}

// tally checks every session of a phase against the oracle and returns the
// good ones.
func tally(res *result, or oracle, lr loadResult) []sessionTimes {
	var good []sessionTimes
	for _, s := range lr.sessions {
		ok := s.ok && or.check(s.stream, nil)
		res.op(ok)
		if ok {
			good = append(good, s)
		}
	}
	return good
}

func runHTTP(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	data := genHTTPData(cfg)
	or, err := httpOracle(data)
	if err != nil {
		return nil, err
	}
	// Setup is a boot with its uploads. bootErr keeps the first failure; a
	// failed boot yields nil, which stop accepts.
	var bootErr error
	clock := setupClock[*daemon]{acc: acc, drop: (*daemon).stop, setup: func() *daemon {
		dm, err := bootDaemon(data)
		bootErr = firstErr(bootErr, err)
		return dm
	}}
	dm := clock.sample()
	defer dm.stop()
	if bootErr != nil {
		return nil, bootErr
	}
	// moreSetups boots and stops further daemons beside the measured one, so
	// setup_s has samples from the whole run, like a cold workload's.
	moreSetups := func() {
		for i := 0; i < httpSetupsPerBreak; i++ {
			clock.sample().stop()
		}
	}
	moreSetups()
	cl := dm.newClient()
	for i := 0; i < 20; i++ { // discarded warm-up: plan cache, connections
		cl.session(nil, 0, time.Now())
	}
	base := readMem(true)

	open := dm.openLoop(nil, httpRate, time.Duration(httpOpenShare*float64(cfg.window())))
	for _, s := range tally(res, or, open) {
		acc.add("ttf_ms", ms(s.ttf))
		acc.add("ttk_ms", ms(s.ttk))
	}
	moreSetups()

	before := readMem(false)
	closed := dm.closedLoop(nil, time.Duration((1-httpOpenShare)*float64(cfg.window())))
	after := readMem(false)
	good := tally(res, or, closed)
	// Capacity is the median over httpSlices consecutive groups of equally
	// many completed sessions, each timed from the completion before it: one
	// stalled stretch does not move it, as it would the phase's mean.
	done := make([]time.Time, len(good))
	for i, s := range good {
		done[i] = s.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	from, at := 0, closed.begin
	for slice := 1; slice <= httpSlices; slice++ {
		to := len(done) * slice / httpSlices
		if to == from {
			continue
		}
		acc.add("results_per_s", ratio(float64((to-from)*httpSessionRows), done[to-1].Sub(at).Seconds()))
		from, at = to, done[to-1]
	}
	res.checksum = or.want.sum
	res.set("alloc_mb", ratio((after.total-before.total)/mb, float64(closed.attempted)), closed.attempted)
	res.set("allocs_per_result", ratio(after.mallocs-before.mallocs, float64(len(good)*httpSessionRows)), closed.attempted)

	held, ok := cl.holdOpen(httpResident)
	res.op(ok)
	res.set("live_heap_mb", (readMem(true).heap-base.heap)/mb, 1)
	for _, id := range held {
		cl.delete(id)
	}
	moreSetups()
	if bootErr != nil {
		return nil, bootErr
	}
	acc.into(res)
	return res, nil
}

// holdOpen opens n sessions and leaves them live at depths spread evenly over
// a session's rows: the i-th has read one page of (i+1)/n of them. Sessions
// all at one depth would all sit on the same side of every growth step of the
// enumerator's queue, and live_heap_mb would jump with the seed by n times
// that step.
func (c *client) holdOpen(n int) (ids []string, ok bool) {
	ok = true
	for i := 0; i < n; i++ {
		id, created := c.create()
		if !created {
			return ids, false
		}
		ids = append(ids, id)
		var s stream
		ok = c.page(id, max(1, (i+1)*httpSessionRows/n), &s) && ok
	}
	return ids, ok
}

func traceHTTP(cfg config) (*result, error) {
	res := newResult()
	acc := samples{}
	tr := newTracer()
	data := genHTTPData(cfg)
	or, err := httpOracle(data)
	if err != nil {
		return nil, err
	}
	if err := ingestBench(tr, acc, data); err != nil {
		return nil, err
	}
	dm, err := bootDaemon(data)
	if err != nil {
		return nil, err
	}
	defer dm.stop()
	cl := dm.newClient()
	for i := 0; i < 20; i++ {
		cl.session(nil, 0, time.Now())
	}
	base := readMem(true)

	open := dm.openLoop(tr, httpRate, time.Duration(httpOpenShare*float64(cfg.window())))
	var total []float64
	liveMax := 0
	for _, s := range tally(res, or, open) {
		total = append(total, ms(s.total))
		liveMax = max(liveMax, s.live)
	}
	// Sessions that failed or were refused miss the latency limit: they enter
	// the percentiles as +Inf would, i.e. above every completed one.
	worst := math.Max(httpLimitMS, percentile(total, 100)) * 2
	for i := len(total); i < open.attempted; i++ {
		total = append(total, worst)
	}
	res.set("session_p50_ms", median(total), len(total))
	p99, used := tailAtMost(total, 99)
	res.set("session_p99_ms", p99, len(total))
	res.notes["session_p99_ms"] = fmt.Sprintf("p%g, limit %d ms", used, httpLimitMS)
	late, _ := tailAtMost(open.lateMS, 99)
	res.set("bench.gen_late_ms_p99", late, len(open.lateMS))
	res.set("server.sessions_live_max", float64(liveMax), 0)

	closed := dm.closedLoop(tr, time.Duration((1-httpOpenShare)*float64(cfg.window())))
	good := tally(res, or, closed)
	res.set("sessions_per_s", ratio(float64(len(good)), closed.elapsed.Seconds()), len(good))

	spans := tr.snapshot()
	for span, metric := range map[string]string{"server.create": "server.create_ms_p50",
		"server.next_page": "server.next_page_ms_p50", "server.delete": "server.delete_ms_p50"} {
		durs := spanDurs(spans, span)
		res.set(metric, median(durs)/1e3, len(durs))
	}
	var inServer, whole float64
	for layer, selfUS := range layerSelfUS(spans) {
		whole += selfUS
		if layer == "server" {
			inServer += selfUS
		}
	}
	res.set("bench.dominant_layer_share", ratio(inServer, whole), 0)

	if err := cl.pagedDrain(tr, acc, cfg); err != nil {
		return nil, err
	}
	var m server.MetricsResponse
	if status, err := cl.call(http.MethodGet, dm.base+"/v1/metrics", nil, &m); err != nil || status != http.StatusOK {
		return nil, firstErr(err, fmt.Errorf("/v1/metrics: status %d", status))
	}
	res.set("server.rejected", float64(m.AdmissionRejected), 0)
	res.set("server.plan_cache_hit_ratio", ratio(float64(m.PlanCacheHits), float64(m.PlanCacheHits+m.PlanCacheMisses)), 0)
	res.set("heap_growth_mb", (readMem(true).heap-base.heap)/mb, 1)
	acc.into(res)
	res.set("failed_share", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.spans = tr.snapshot()
	return res, nil
}

// ingestBench measures the layers under the serving path in-process: CSV
// ingest with type sniffing and dictionary encoding, typed decode of result
// rows, and JSON encoding of one page.
func ingestBench(tr *tracer, acc samples, data httpData) error {
	var db *relation.DB
	for rep := 0; rep < 5; rep++ {
		tr.nextOp()
		t := time.Now()
		var err error
		tr.do("relation.ingest", func() { db, err = data.typedDB() })
		if err != nil {
			return err
		}
		acc.add("relation.ingest_rows_per_s", ratio(float64(4*data.rows), time.Since(t).Seconds()))
	}
	op := enumOp{text: path4Text, alg: core.Take2}
	it, err := op.open(db, op.alg, serial)
	if err != nil {
		return err
	}
	defer it.Close()
	var rows []core.Row[float64]
	for len(rows) < 20*httpPageRows {
		row, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	if len(rows) < httpPageRows {
		return fmt.Errorf("typed dataset yields only %d rows", len(rows))
	}
	decoded := make([][]any, len(rows))
	tr.nextOp()
	t := time.Now()
	tr.do("engine.typed_decode", func() {
		for i, row := range rows {
			decoded[i] = it.TypedVals(row.Vals)
		}
	})
	acc.add("engine.typed_decode_ns_per_row", float64(time.Since(t))/float64(len(rows)))

	page := server.NextResponse{ID: "bench", Rows: make([]server.WireRow, httpPageRows)}
	for i := range page.Rows {
		page.Rows[i] = server.WireRow{Rank: i + 1, Vals: decoded[i], Weight: rows[i].Weight}
	}
	for rep := 0; rep < 50; rep++ {
		t := time.Now()
		var err error
		tr.do("server.encode", func() { _, err = json.Marshal(page) })
		if err != nil {
			return err
		}
		acc.add("server.encode_us_per_row", us(time.Since(t))/httpPageRows)
	}
	return nil
}

// pagedDrain pages one session 1000 rows at a time up to 200k rows (scaled):
// the rows/s one client gets through parse-free paging.
func (c *client) pagedDrain(tr *tracer, acc samples, cfg config) error {
	const pageRows = 1000
	pages := cfg.size(200, 5)
	id, created := c.create()
	if !created {
		return fmt.Errorf("paged drain: session not created")
	}
	defer c.delete(id)
	var s stream
	tr.nextOp()
	t := time.Now()
	root := tr.begin("bench.paged_drain")
	for p := 0; p < pages; p++ {
		ok := false
		tr.do("server.next_page_1000", func() { ok = c.page(id, pageRows, &s) })
		if !ok {
			break
		}
	}
	tr.end(root)
	if s.unsorted || s.rows == 0 {
		return fmt.Errorf("paged drain: %d rows, unsorted=%v", s.rows, s.unsorted)
	}
	acc.add("server.http_rows_per_s", ratio(float64(s.rows), time.Since(t).Seconds()))
	return nil
}
