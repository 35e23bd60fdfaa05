package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe"
	"vqprobe/internal/metrics"
	"vqprobe/internal/route"
)

const (
	rowsPerReq  = 32                     // route-bulk batch size
	bulkRounds  = 10                     // route-bulk rounds of reference and saturation windows
	setupBudget = 500 * time.Millisecond // time a run spends repeating its set-up
	maxSetups   = 200                    // cap on set-up repetitions
)

// refRowsPerS is route-bulk's reference rate for latency, 20 requests/s:
// a lightly loaded collector. It is about a sixth of what the two
// connections carry at saturation (3.8-4.4k rows/s at the reference
// speed on a 2-vCPU VM), so its latency is service time rather than
// queueing. Each run reports the ratio of the two as
// ref_share_of_capacity. It stays fixed so that p50_ms is comparable
// across commits.
const refRowsPerS = 640

// online is the set-up shared by the serving workloads: a model trained
// on seeded controlled sessions, its snapshot on disk, and the held-out
// request rows with their reference answers.
type online struct {
	train    []vqprobe.Session
	model    *vqprobe.Model
	cm       *vqprobe.CompiledModel
	snapshot string
	pool     *rowPool
	dir      *workDir
}

func prepareOnline(o options, workers int) (*online, error) {
	in := &online{}
	in.train = simulate(vqprobe.SimulateControlled, o.size.trainSessions, trainSeed(o.seed), workers)
	hs := heldOutSeed(o.seed)
	held := simulate(vqprobe.SimulateControlled, o.size.heldOut, hs, workers)
	held = append(held, simulate(vqprobe.SimulateRealWorld, o.size.heldOut, hs+1, workers)...)
	held = append(held, simulate(vqprobe.SimulateWild, o.size.heldOut, hs+2, workers)...)
	var err error
	if in.model, err = vqprobe.Train(in.train, vqprobe.IdentifyRootCause, vqprobe.AllVantagePoints); err != nil {
		return nil, err
	}
	if in.dir, err = newWorkDir(); err != nil {
		return nil, err
	}
	if in.snapshot, err = in.dir.saveSnapshot(in.model, "model.snap"); err != nil {
		in.dir.cleanup()
		return nil, err
	}
	if in.cm, err = vqprobe.LoadServingModel(in.snapshot); err != nil {
		in.dir.cleanup()
		return nil, err
	}
	if in.pool, err = buildPool(held, in.cm); err != nil {
		in.dir.cleanup()
		return nil, err
	}
	return in, nil
}

// trainTimer times trainAndValidate for train_s. A run samples it at
// several points, so the median does not hang on one stretch of machine
// noise. A sample is its own RSS phase ("train"), and the phase it
// interrupts resumes after it.
type trainTimer struct {
	sessions []vqprobe.Session
	seed     int64
	workers  int
	rss      *rssMeter
	phase    string
	times    []timed // seconds
	first    *trained
}

// sample times repetitions of the pipeline for about d, at least one.
func (t *trainTimer) sample(d time.Duration) error {
	t.rss.end(t.phase)
	t.rss.begin()
	defer func() {
		t.rss.end("train")
		t.rss.begin()
	}()
	for start := now(); ; {
		t0 := now()
		tr, err := trainAndValidate(t.sessions, vqprobe.AllVantagePoints, t.seed, t.workers)
		if err != nil {
			return err
		}
		d := since(t0)
		t.times = append(t.times, one(d.Seconds(), t0, d))
		if t.first == nil {
			t.first = tr
		}
		if since(start) >= d {
			return nil
		}
	}
}

func (t *trainTimer) report(rec *recorder) {
	rec.timedMetric("train_s", t.times, aggregate)
}

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// topology is the serving deployment under test: vqserve replicas, and
// for route-bulk a vqroute router in front of them.
type topology struct {
	engines  []*vqprobe.Engine
	replicas []*server
	router   *route.Router
	front    *server
	target   string // base URL the load is sent to
}

type topoConfig struct {
	snapshot string
	replicas int
	routed   bool
	tracing  *tracing // nil: no span wrappers
	wrap     func(http.Handler) http.Handler
	client   *http.Client
}

// startTopology brings the deployment up: each replica loads the
// snapshot and starts its engine and listener, the router (when routed)
// starts and completes its first health poll; a direct deployment's
// first poll is the client's own /healthz. This is what setup_s times.
func startTopology(cfg topoConfig) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := 0; i < cfg.replicas; i++ {
		cm, err := vqprobe.LoadServingModel(cfg.snapshot)
		if err != nil {
			t.stop()
			return nil, err
		}
		eng := vqprobe.NewEngine(cm, vqprobe.EngineConfig{})
		t.engines = append(t.engines, eng)
		h := eng.Handler()
		if cfg.wrap != nil {
			h = cfg.wrap(h)
		}
		if cfg.tracing != nil {
			h = cfg.tracing.handler("serve", h)
		}
		srv, err := startServer(h)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, srv)
		urls = append(urls, srv.url)
	}
	if !cfg.routed {
		t.target = urls[0]
		if err := healthz(cfg.client, t.target); err != nil {
			t.stop()
			return nil, err
		}
		return t, nil
	}
	rcfg := route.Config{Replicas: urls}
	if cfg.tracing != nil {
		rcfg.Client = &http.Client{Transport: &spanTransport{t: cfg.tracing, base: http.DefaultTransport}}
	}
	rt, err := route.New(rcfg)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = rt
	h := rt.Handler()
	if cfg.tracing != nil {
		h = cfg.tracing.handler("route", h)
	}
	if t.front, err = startServer(h); err != nil {
		t.stop()
		return nil, err
	}
	t.target = t.front.url
	rt.PollHealth(context.Background())
	for _, st := range rt.Statuses() {
		if st.State != "healthy" {
			t.stop()
			return nil, fmt.Errorf("replica %s is %s after the first health poll: %s", st.URL, st.State, st.LastError)
		}
	}
	return t, nil
}

// stop shuts the deployment down front to back and drains the engines.
func (t *topology) stop() {
	if t.front != nil {
		t.front.stop()
	}
	for _, s := range t.replicas {
		s.stop()
	}
	for _, e := range t.engines {
		// The servers in front are down, so the engine drains at once;
		// Close reports no error.
		_ = e.Close()
	}
}

func healthz(c *http.Client, base string) error {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz: HTTP %d", base, resp.StatusCode)
	}
	return nil
}

// setupTimer collects a run's set-up times. A run sets up several times
// at its start and again between its measurement windows, so setup_s,
// their median, does not hang on one stretch of machine noise.
type setupTimer struct{ times []timed }

// repeat calls up, which sets up and tears down once and returns the
// set-up's duration, at least reps times and then while d lasts, at
// most maxSetups times: a set-up takes well under a millisecond to a
// few, and its median needs many to settle.
func (s *setupTimer) repeat(d time.Duration, reps int, up func() (time.Duration, error)) error {
	for start, n := now(), 0; n < reps || (since(start) < d && n < maxSetups); n++ {
		t0 := now()
		t, err := up()
		if err != nil {
			return err
		}
		s.times = append(s.times, one(t.Seconds(), t0, t))
	}
	return nil
}

func (s *setupTimer) report(rec *recorder) {
	rec.timedMetric("setup_s", s.times, perOperation)
}

// deploy is one timed set-up of the serving deployment, torn down again.
func deploy(cfg topoConfig) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := now()
		t, err := startTopology(cfg)
		if err != nil {
			return 0, err
		}
		d := since(t0)
		t.stop()
		cfg.client.CloseIdleConnections()
		return d, nil
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// errHTTP is a non-200 answer to a whole request.
var errHTTP = errors.New("non-200 response")

// client sends the load's requests and checks every answer.
type client struct {
	c       *http.Client
	url     string
	tracing *tracing
	bufs    sync.Pool
	// Wire accounting, for the per-layer bytes-per-row figures.
	reqBytes, respBytes, rows atomic.Int64
}

// do posts one NDJSON body and returns the number of rows answered
// wrongly; a failed request answers all of its rows wrongly.
func (c *client) do(ids []string, rows []*poolRow, explain bool) (int, error) {
	bp, _ := c.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer c.bufs.Put(bp)
	buf := (*bp)[:0]
	for j, r := range rows {
		buf = appendLine(buf, ids[j], r, explain)
	}
	*bp = buf
	sp := c.tracing.start("client", "request", 0)
	req, err := http.NewRequest(http.MethodPost, c.url+"/diagnose", bytes.NewReader(buf))
	if err != nil {
		return len(rows), err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if sp.Active() {
		req.Header.Set(parentHeader, strconv.FormatUint(uint64(sp.ID()), 10))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return len(rows), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	c.reqBytes.Add(int64(len(buf)))
	c.respBytes.Add(int64(len(body)))
	c.rows.Add(int64(len(rows)))
	if err != nil {
		return len(rows), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(rows), fmt.Errorf("%w: HTTP %d", errHTTP, resp.StatusCode)
	}
	return checkAnswers(body, ids, rows, explain), nil
}

// bulkPhase pre-draws the rows of one open-loop phase's requests.
type bulkPhase struct {
	picks  [][]*poolRow
	prefix string
	sent   atomic.Int64
}

func newBulkPhase(pool *rowPool, n int, seed int64, name string) *bulkPhase {
	rng := rand.New(rand.NewSource(seed))
	ph := &bulkPhase{picks: make([][]*poolRow, n), prefix: name + "-"}
	for k := range ph.picks {
		rows := make([]*poolRow, rowsPerReq)
		for j := range rows {
			rows[j] = pool.draw(rng)
		}
		ph.picks[k] = rows
	}
	return ph
}

// send issues request k of the phase; every row has its own session ID.
// A closed loop sends more requests than the phase drew; they reuse its
// rows in turn.
func (ph *bulkPhase) send(c *client) sendFunc {
	return func(k int) (int, error) {
		ids := make([]string, rowsPerReq)
		for j := range ids {
			ids[j] = ph.prefix + strconv.Itoa(k*rowsPerReq+j)
		}
		ph.sent.Add(1)
		return c.do(ids, ph.picks[k%len(ph.picks)], false)
	}
}

// openPhase runs one open-loop phase at rowsPerS and accounts its rows.
func openPhase(rec *recorder, c *client, pool *rowPool, rowsPerS float64, dur time.Duration, seed int64, name string, workers int) openResult {
	n := max(1, int(math.Round(rowsPerS/rowsPerReq*dur.Seconds())))
	ph := newBulkPhase(pool, n, seed, name)
	res := openLoop(n, dur, rand.New(rand.NewSource(seed+1)), workers, ph.send(c))
	rec.ops(int(ph.sent.Load()) * rowsPerReq)
	rec.fail(res.badRows, "%s: %d of %d requests failed or answered rows wrongly", name, res.failedReqs, n)
	return res
}

// onlineRun is one run of a serving workload: its inputs, the
// deployment under load, the client, and in a traced run the tracer.
type onlineRun struct {
	o       options
	rec     *recorder
	in      *online
	workers int
	budget  time.Duration
	tt      *trainTimer
	st      *setupTimer
	setup   func() (time.Duration, error)
	rss     *rssMeter
	tr      *tracing
	topo    *topology
	c       *client
}

// startOnline generates the inputs, takes train_s's first samples
// (untraced runs), times the deployment's set-up and brings it up. The
// RSS phase "serve" starts with the set-ups.
func startOnline(o options, rec *recorder, replicas int, routed bool) (*onlineRun, error) {
	r := &onlineRun{o: o, rec: rec, workers: runtime.NumCPU(),
		budget: time.Duration(o.seconds * float64(time.Second)), rss: newRSSMeter()}
	var err error
	if r.in, err = prepareOnline(o, r.workers); err != nil {
		return nil, err
	}
	rec.notes["traffic"] = r.in.pool.shares()
	r.tt = &trainTimer{sessions: r.in.train, seed: o.seed, workers: r.workers, rss: r.rss, phase: "inputs"}
	if o.trace {
		r.tr = newTracing()
	} else if err := r.tt.sample(r.budget / 60); err != nil {
		r.in.dir.cleanup()
		return nil, err
	} else {
		r.burst()
	}
	r.tt.phase = "serve"
	hc := newClient(r.workers)
	cfg := topoConfig{snapshot: r.in.snapshot, replicas: replicas, routed: routed, tracing: r.tr, wrap: o.wrapReplica, client: hc}
	r.st, r.setup = &setupTimer{}, deploy(cfg)
	if err := r.st.repeat(setupBudget, o.size.setupReps, r.setup); err != nil {
		r.in.dir.cleanup()
		return nil, err
	}
	if r.topo, err = startTopology(cfg); err != nil {
		r.in.dir.cleanup()
		return nil, err
	}
	r.c = &client{c: hc, url: r.topo.target, tracing: r.tr}
	return r, nil
}

func (r *onlineRun) close() {
	r.topo.stop()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	r.in.dir.cleanup()
}

// burst runs a calibration burst (see calib.go). An untraced run has
// one between every two of its measurements.
func (r *onlineRun) burst() { r.rec.cal.sample(r.budget / 300) }

// between is what an untraced run does after each round of load
// windows: a train_s sample and more set-ups, each after a burst, and a
// closing burst.
func (r *onlineRun) between() error {
	r.burst()
	if err := r.tt.sample(r.budget / 150); err != nil {
		return err
	}
	r.burst()
	if err := r.st.repeat(r.budget/300, 1, r.setup); err != nil {
		return err
	}
	r.burst()
	return nil
}

// msAt lists a load window's latencies in milliseconds, all standing
// for the moment at.
func msAt(lat []time.Duration, at time.Time) timed {
	x := timed{at: at, vs: make([]float64, len(lat))}
	for i, d := range lat {
		x.vs[i] = ms(d)
	}
	return x
}

// ratesAt splits a closed-loop phase that started at start into halves
// and lists each half's completion rate, times per, at the half's middle.
func ratesAt(xs []timed, res closedResult, start time.Time, per float64) []timed {
	for i, x := range windowRates(res.done, res.elapsed, 2) {
		xs = append(xs, one(x*per, start.Add(res.elapsed*time.Duration(i)/2), res.elapsed/2))
	}
	return xs
}

// finishUntraced reports setup_s, train_s and max_rss_mb: the peak of
// the deployment's set-ups and serving, without the train_s samples.
func (r *onlineRun) finishUntraced() {
	r.st.report(r.rec)
	r.tt.report(r.rec)
	r.rss.end("serve")
	r.rec.metric("max_rss_mb", r.rss.peak("serve"), 1)
	r.rss.note(r.rec)
}

// finishTraced reports a traced pass's per-layer figures: the spans'
// ledger set against the engines' registry deltas, the wire and runtime
// figures, the public model calls on the run's rows, and the Chrome
// trace.
func (r *onlineRun) finishTraced(tot tracedTotals, plain, traced []time.Duration) error {
	l, err := ledgerOf(tot.events)
	if err != nil {
		return err
	}
	rec, eng := r.rec, tot.eng
	engineMs := eng.total.mean() * 1e3
	rec.layer("client.self_ms", "ms", l.client)
	rec.layer("route.self_ms", "ms", l.route)
	rec.layer("route.upstream_ms", "ms", l.upstream)
	rec.layer("route.transport_ms", "ms", l.trans)
	rec.layer("route.subreqs_per_req", "count", l.subreqs)
	rec.layer("serve.handle_ms", "ms", l.handle)
	rec.layer("serve.codec_ms", "ms", l.handle-engineMs)
	setWire(rec, r.c)
	setEngine(rec, eng)
	rec.layer("runtime.gc_cycles", "count", float64(tot.gcs))
	rec.layer("runtime.alloc_mb", "MB", tot.allocMB)

	// Ledger along each request's critical path: client, router, the
	// slowest upstream call's transport, that replica's codec, and the
	// engine's own stages. What the stages do not cover is unattributed.
	codec := l.replica - engineMs
	stages := (eng.queue.mean() + eng.norm.mean() + eng.pred.mean()) * 1e3
	rec.layer("ledger.unattributed_frac", "ratio", (l.e2e-(l.client+l.route+l.trans+codec+stages))/l.e2e)
	rec.layer("trace.overhead_frac", "ratio", overhead(plain, traced))
	rec.notes["ledger_ms"] = map[string]float64{
		"e2e": l.e2e, "client": l.client, "route": l.route, "transport": l.trans, "codec": codec,
		"queue": eng.queue.mean() * 1e3, "normalize": eng.norm.mean() * 1e3, "predict": eng.pred.mean() * 1e3,
	}
	if err := timeModelCalls(rec, r.in, r.budget/15); err != nil {
		return err
	}
	path, err := r.tr.writeChromeTrace(fmt.Sprintf("%s-seed%d.json", r.o.workload, r.o.seed))
	if err != nil {
		return err
	}
	rec.notes["trace_file"] = path
	return nil
}

func runRouteBulk(o options, rec *recorder) error {
	r, err := startOnline(o, rec, 2, true)
	if err != nil {
		return err
	}
	defer r.close()
	c, pool, budget, workers := r.c, r.in.pool, r.budget, r.workers
	seed := mixSeed(o.seed)

	// Warm-up: connections, caches and the first GC cycles.
	warm := budget / 20
	openPhase(rec, c, pool, refRowsPerS, warm, seed, "warm", workers)

	if o.trace {
		return tracedBulk(r, budget-warm, seed)
	}

	// Rounds of a reference-rate window and a saturation window, each
	// after a calibration burst, and then what runs between rounds, so
	// each figure is drawn from the whole run rather than from one
	// stretch of it.
	win := budget * 3 / 8 / bulkRounds
	sat := newBulkPhase(pool, 512, seed+1, "sat")
	var ref, rates []timed
	next := 0
	for i := 0; i < bulkRounds; i++ {
		r.burst()
		t0 := now()
		res := openPhase(rec, c, pool, refRowsPerS, win, seed+10+int64(i), "ref"+strconv.Itoa(i), workers)
		ref = append(ref, msAt(res.lat, t0.Add(win/2)))
		r.burst()
		t0 = now()
		cr := closedLoop(win, workers, next, sat.send(c))
		n := len(cr.lat)
		next += n + workers
		rec.ops(n * rowsPerReq)
		rec.fail(cr.badRows, "saturation: %d of %d requests failed or answered rows wrongly", cr.failedReqs, n)
		rates = ratesAt(rates, cr, t0, rowsPerReq)
		if err := r.between(); err != nil {
			return err
		}
	}
	r.finishUntraced()
	rec.timedMetric("p50_ms", ref, aggregate)
	rec.tails(values(ref))
	rec.timedMetric("rate_per_s", rates, aggregate)
	rec.notes["ref_share_of_capacity"] = refRowsPerS / rec.e2e["rate_per_s"].Value
	return nil
}

// tracedBulk is route-bulk's traced run: untraced and traced windows at
// the reference rate on the same deployment, then the per-layer ledger,
// with the router's own counters.
func tracedBulk(r *onlineRun, budget time.Duration, seed int64) error {
	rec, c, pool, workers := r.rec, r.c, r.in.pool, r.workers
	window := budget / 10
	regs := []*metrics.Registry{r.topo.engines[0].Registry(), r.topo.engines[1].Registry()}
	router := r.topo.router.Registry()
	failovers0 := counter(router, "vqroute_failovers_total")
	shed0 := counter(router, "vqroute_shed_total")
	c.resetWire()
	var plain, traced, late []time.Duration
	tot, err := alternate(r.tr, 4, regs, func(i int) {
		res := openPhase(rec, c, pool, refRowsPerS, window, seed+10+int64(i), "plain"+strconv.Itoa(i), workers)
		plain = append(plain, res.lat...)
	}, func(i int) {
		res := openPhase(rec, c, pool, refRowsPerS, window, seed+20+int64(i), "traced"+strconv.Itoa(i), workers)
		traced = append(traced, res.lat...)
		late = append(late, res.late...)
	})
	if err != nil {
		return err
	}
	rec.layer("loadgen.late_p99_ms", "ms", ms(quantile(late, 0.99)))
	rec.layer("route.failovers", "count", counter(router, "vqroute_failovers_total")-failovers0)
	rec.layer("route.shed_rows", "count", counter(router, "vqroute_shed_total")-shed0)
	return r.finishTraced(tot, plain, traced)
}

// overhead is the traced pass's median latency over the untraced one's,
// minus one.
func overhead(plain, traced []time.Duration) float64 {
	p := ms(quantile(plain, 0.5))
	return ms(quantile(traced, 0.5))/p - 1
}

func (c *client) resetWire() {
	c.reqBytes.Store(0)
	c.respBytes.Store(0)
	c.rows.Store(0)
}

func setWire(rec *recorder, c *client) {
	rows := float64(max(1, c.rows.Load()))
	rec.layer("wire.req_bytes_per_row", "bytes", float64(c.reqBytes.Load())/rows)
	rec.layer("wire.resp_bytes_per_row", "bytes", float64(c.respBytes.Load())/rows)
}

// timeModelCalls times the public model calls on the run's own rows:
// compiled Diagnose and DiagnoseExplain, the pointer tree's
// PredictVector, and a snapshot save + load round trip.
func timeModelCalls(rec *recorder, in *online, budget time.Duration) error {
	rows := in.pool.all()
	perCall := func(call func(r *poolRow)) float64 {
		calls := 0
		t0 := now()
		for since(t0) < budget/4 {
			for _, r := range rows {
				call(r)
			}
			calls += len(rows)
		}
		return float64(since(t0).Nanoseconds()) / 1e3 / float64(calls)
	}
	rec.layer("c45.diagnose_us", "us", perCall(func(r *poolRow) { in.cm.Diagnose(r.fv) }))
	rec.layer("c45.explain_us", "us", perCall(func(r *poolRow) { in.cm.DiagnoseExplain(r.fv) }))
	rec.layer("c45.predict_vector_us", "us", perCall(func(r *poolRow) { in.model.PredictVector(r.fv) }))
	var trips []float64
	for t0 := now(); len(trips) < 3 || since(t0) < budget/4; {
		t1 := now()
		path, err := in.dir.saveSnapshot(in.model, "roundtrip.snap")
		if err != nil {
			return err
		}
		if _, err := vqprobe.LoadServingModel(path); err != nil {
			return err
		}
		trips = append(trips, ms(since(t1)))
	}
	rec.layer("c45.snapshot_roundtrip_ms", "ms", median(trips))
	return nil
}

func runServeLookup(o options, rec *recorder) error {
	r, err := startOnline(o, rec, 1, false)
	if err != nil {
		return err
	}
	defer r.close()
	budget, workers := r.budget, r.workers

	rng := rand.New(rand.NewSource(mixSeed(o.seed)))
	picks := make([]*poolRow, 4096)
	for i := range picks {
		picks[i] = r.in.pool.draw(rng)
	}
	next := 0
	phase := func(dur time.Duration) closedResult {
		res := closedLoop(dur, workers, next, func(k int) (int, error) {
			row := picks[k%len(picks)]
			return r.c.do([]string{"l" + strconv.Itoa(k)}, []*poolRow{row}, true)
		})
		n := len(res.lat)
		next += n + workers
		rec.ops(n)
		rec.fail(res.failedReqs, "lookup: %d of %d requests failed or answered wrongly", res.failedReqs, n)
		return res
	}
	phase(budget / 15) // warm-up

	if !o.trace {
		// Segments, each after a calibration burst and followed by what
		// runs between rounds, so every figure is drawn from the whole
		// run.
		var lat, rates []timed
		const segments = 10
		seg := budget * 7 / 10 / segments
		for i := 0; i < segments; i++ {
			r.burst()
			t0 := now()
			res := phase(seg)
			lat = append(lat, msAt(res.lat, t0.Add(res.elapsed/2)))
			rates = ratesAt(rates, res, t0, 1)
			if err := r.between(); err != nil {
				return err
			}
		}
		r.finishUntraced()
		rec.timedMetric("rate_per_s", rates, aggregate)
		rec.timedMetric("p50_ms", lat, perOperation)
		rec.tails(values(lat))
		return nil
	}

	window := (budget - budget/15) / 10
	r.c.resetWire()
	var plain, traced []time.Duration
	tot, err := alternate(r.tr, 4, []*metrics.Registry{r.topo.engines[0].Registry()}, func(int) {
		plain = append(plain, phase(window).lat...)
	}, func(int) {
		traced = append(traced, phase(window).lat...)
	})
	if err != nil {
		return err
	}
	return r.finishTraced(tot, plain, traced)
}
