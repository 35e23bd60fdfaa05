package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/rowcodec"
)

// job is one queued classification.
type job struct {
	req Request
	// line and raw carry a /diagnose row decoded on the fast path: its
	// bytes (owned by the handler until done) and its values projected
	// onto proj's raw-row layout. A worker holding another snapshot
	// re-projects the row from line, so a row is always classified by
	// the model the worker holds. Both are nil for rows that carry a
	// feature map.
	line []byte
	raw  []float64
	proj *Model
	res  *Result
	done func()
	enq  time.Time
}

// shard is one bounded queue + worker pair.
type shard struct {
	id    int
	ch    chan job
	depth *metrics.Gauge
}

func newShard(id, depth int, reg *metrics.Registry) *shard {
	return &shard{
		id:    id,
		ch:    make(chan job, depth),
		depth: reg.Gauge(fmt.Sprintf("vqserve_queue_depth{shard=%q}", fmt.Sprint(id)), "queued requests per shard"),
	}
}

// shardFor hashes a session ID onto a shard so per-session order is
// preserved; requests without an ID round-robin across shards.
func (e *Engine) shardFor(id string) int {
	if id == "" {
		return int(e.next.Add(1) % uint64(len(e.shards)))
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(e.shards)))
}

// batchScratch is one worker's pooled batch-classification state. The
// matrix is laid out for a specific model snapshot and rebuilt only
// when the worker first sees a new snapshot, so steady-state serving
// allocates nothing per batch.
type batchScratch struct {
	model *Model // snapshot the matrix layout belongs to
	mat   *c45.Matrix
	bs    c45.BatchScratch
	idx   []int32
	raw   []float64 // raw-row staging buffer for re-projected rows
	fill  []float64 // schema-row staging buffer for prep
	row   []float64 // scalar-path scratch (explain / no-model jobs)
	acc   []float64

	// missing counts, per schema feature of model, the rows of the
	// current batch that lacked it; flushed into missingC once per batch.
	missing  []uint64
	missingC []*metrics.Counter

	// Per batched job, parallel to the matrix rows.
	jobs   []*job
	queueD []time.Duration
	normD  []time.Duration
}

// runWorker drains one shard: it batches up to MaxBatch queued jobs,
// loads the model snapshot once per batch, and classifies the whole
// drain through one PredictBatch frontier sweep over a pooled matrix,
// recording per-stage latencies per request.
func (e *Engine) runWorker(sh *shard) {
	defer e.workers.Done()
	batch := make([]job, 0, e.cfg.MaxBatch)
	ws := &batchScratch{}
	for {
		j, ok := <-sh.ch
		if !ok {
			return
		}
		batch = append(batch[:0], j)
	drain:
		for len(batch) < cap(batch) {
			select {
			case j2, ok := <-sh.ch:
				if !ok {
					break drain
				}
				batch = append(batch, j2)
			default:
				break drain
			}
		}
		sh.depth.Set(float64(len(sh.ch)))
		e.obs.batchSize.Observe(float64(len(batch)))
		m := e.model.Load()
		//lint:ignore virtclock serving measures real request latency; there is no virtual clock here
		dequeued := time.Now()
		e.processBatch(m, batch, ws, dequeued)
	}
}

// processBatch classifies one drained batch. Explain requests and the
// no-model case take the scalar path (process); everything else is
// normalized into the worker's pooled matrix and classified in a
// single batch sweep, whose cost is attributed evenly across the
// batched requests' predict-stage latencies.
func (e *Engine) processBatch(m *Model, batch []job, ws *batchScratch, dequeued time.Time) {
	if m == nil {
		for i := range batch {
			e.process(m, &batch[i], ws, dequeued)
		}
		return
	}
	if ws.model != m {
		// First batch against a fresh snapshot: rebuild the pooled matrix
		// and the missing-feature tallies for its schema. Happens once
		// per reload per worker.
		ws.model = m
		ws.mat = m.bp.NewMatrix(cap(batch))
		ws.raw = make([]float64, m.keys.Len())
		ws.fill = make([]float64, len(m.plan))
		ws.missing = make([]uint64, m.features)
		ws.missingC = ws.missingC[:0]
		for _, f := range m.keys.Names()[:m.features] {
			ws.missingC = append(ws.missingC, e.reg.Counter(fmt.Sprintf("vqserve_feature_missing_total{feature=%q}", f),
				"classified rows that lacked the schema feature"))
		}
	}
	defer ws.flushMissing()
	ws.mat.Reset()
	ws.jobs, ws.queueD, ws.normD = ws.jobs[:0], ws.queueD[:0], ws.normD[:0]
	for i := range batch {
		e.prep(m, &batch[i], ws, dequeued)
	}
	n := len(ws.jobs)
	if n == 0 {
		return
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t0 := time.Now()
	errMsg := e.predictBatch(m, ws)
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	predD := time.Since(t0)
	if errMsg != "" {
		for bi, j := range ws.jobs {
			e.failBatched(j, ws.queueD[bi], errMsg)
		}
		return
	}
	share := predD / time.Duration(n)
	for bi, j := range ws.jobs {
		e.finish(m, j, int(ws.idx[bi]), ws.queueD[bi], ws.normD[bi], share)
	}
}

// rawRow returns j's raw row laid out for snapshot m, counting the
// schema features it lacks: the row the handler projected when it
// decoded against m, else the retained line re-scanned or the feature
// map projected into the worker's scratch.
func (ws *batchScratch) rawRow(m *Model, j *job) []float64 {
	raw := j.raw
	switch {
	case j.line != nil && j.proj == m:
	case j.line != nil:
		// Decoded against a superseded snapshot: project it again.
		// Whether a line scans does not depend on the key set, so this
		// cannot fail unless the retained bytes changed under the job.
		if _, _, ok := rowcodec.Scan(j.line, m.keys, ws.raw); !ok {
			panic("serve: retained request line no longer decodes")
		}
		raw = ws.raw
	default:
		m.keys.Project(j.req.Features, ws.raw)
		raw = ws.raw
	}
	for i, v := range raw[:m.features] {
		if math.IsNaN(v) {
			ws.missing[i]++
		}
	}
	return raw
}

// flushMissing adds the batch's missing-feature tallies to their
// counters: one atomic add per lacking feature per batch, not per row.
func (ws *batchScratch) flushMissing() {
	for i, n := range ws.missing {
		if n > 0 {
			ws.missingC[i].Add(n)
			ws.missing[i] = 0
		}
	}
}

// prep runs one job's pre-classification stages — timeout and validity
// checks, fault injection, normalization — and appends the normalized
// row to the worker's pooled matrix. Jobs that fail a check are
// answered immediately; jobs that ask for an explanation fall back to
// the scalar path, which records the traversal. A panic (e.g. from
// InjectFault) is recovered per-job exactly as on the scalar path.
func (e *Engine) prep(m *Model, j *job, ws *batchScratch, dequeued time.Time) {
	if j.req.Explain {
		e.process(m, j, ws, dequeued)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			j.res.ID = j.req.ID
			j.res.Err = fmt.Sprintf("internal error: recovered panic: %v", r)
			e.obs.panics.Inc()
			e.obs.errs.Inc()
			e.complete(j)
		}
	}()
	queueD := dequeued.Sub(j.enq)
	fail := func(msg string) {
		e.obs.queueHist.Observe(queueD.Seconds())
		j.res.ID = j.req.ID
		j.res.Err = msg
		e.obs.errs.Inc()
		e.complete(j)
	}
	if d := e.cfg.RequestTimeout; d > 0 && queueD > d {
		e.obs.timeouts.Inc()
		fail(fmt.Sprintf("request timed out after %v in queue (limit %v)", queueD, d))
		return
	}
	if err := ValidateFeatures(j.req.Features); err != nil {
		e.obs.invalid.Inc()
		fail(err.Error())
		return
	}
	if f := e.cfg.InjectFault; f != nil {
		if err := f(&j.req); err != nil {
			fail(err.Error())
			return
		}
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t0 := time.Now()
	m.fillRow(ws.rawRow(m, j), ws.fill)
	ws.mat.AppendRowValues(ws.fill)
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	ws.normD = append(ws.normD, time.Since(t0))
	ws.queueD = append(ws.queueD, queueD)
	ws.jobs = append(ws.jobs, j)
}

// predictBatch runs the frontier sweep over the pooled matrix. A panic
// is recovered here so a poisoned batch fails its requests instead of
// killing the shard worker; the returned message is empty on success.
func (e *Engine) predictBatch(m *Model, ws *batchScratch) (errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			e.obs.panics.Inc()
			errMsg = fmt.Sprintf("internal error: recovered panic: %v", r)
		}
	}()
	rows := ws.mat.Rows()
	if cap(ws.idx) < rows {
		ws.idx = make([]int32, rows)
	}
	ws.idx = ws.idx[:rows]
	m.bp.PredictBatchIdx(ws.mat, &ws.bs, ws.idx)
	return ""
}

// failBatched answers one batched job after the batch sweep failed.
func (e *Engine) failBatched(j *job, queueD time.Duration, msg string) {
	e.obs.queueHist.Observe(queueD.Seconds())
	j.res.ID = j.req.ID
	j.res.Err = msg
	e.obs.errs.Inc()
	e.complete(j)
}

// finish writes one batched job's successful result and records its
// stage latencies and trace spans, mirroring the scalar path. predD is
// this request's even share of the batch sweep's duration.
func (e *Engine) finish(m *Model, j *job, cls int, queueD, normD, predD time.Duration) {
	label := m.bp.Classes()[cls]
	sev, cause := ParseClass(label)
	*j.res = Result{ID: j.req.ID, Class: label, Severity: sev, Cause: cause}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	totalD := time.Since(j.enq)

	if tr := e.cfg.Tracer; tr.Enabled() {
		end := tr.Now()
		reqID := tr.RecordSpan("serve", "request", "id="+j.req.ID+" class="+label, 0, end-totalD, totalD)
		tr.RecordSpan("serve", "queue", "", reqID, end-totalD, queueD)
		tr.RecordSpan("serve", "normalize", "", reqID, end-normD-predD, normD)
		tr.RecordSpan("serve", "predict", "", reqID, end-predD, predD)
		tid := strconv.FormatUint(uint64(reqID), 16)
		j.res.TraceID = tid
		e.obs.queueHist.ObserveExemplar(queueD.Seconds(), tid)
		e.obs.normHist.ObserveExemplar(normD.Seconds(), tid)
		e.obs.predHist.ObserveExemplar(predD.Seconds(), tid)
		e.obs.totalHist.ObserveExemplar(totalD.Seconds(), tid)
	} else {
		e.obs.queueHist.Observe(queueD.Seconds())
		e.obs.normHist.Observe(normD.Seconds())
		e.obs.predHist.Observe(predD.Seconds())
		e.obs.totalHist.Observe(totalD.Seconds())
	}
	e.obs.requests.Inc()
	e.complete(j)
}

// complete invokes the job's done callback, swallowing a panic from
// the caller's code: the job's accounting already stands, and the
// worker must survive.
func (e *Engine) complete(j *job) {
	defer func() {
		if r := recover(); r != nil {
			e.obs.panics.Inc()
		}
	}()
	j.done()
}

// process classifies one job against the snapshot m, reusing the
// worker-local scratch. dequeued is when the worker pulled the job's
// batch off the shard queue.
//
// A panic anywhere in classification (or in the caller's done callback)
// is recovered here and surfaced as a per-request error: one poisoned
// request must never kill a shard worker, which would strand every
// later job hashed to that shard and hang Close.
func (e *Engine) process(m *Model, j *job, ws *batchScratch, dequeued time.Time) {
	counted := false // whether requests/errs already accounts for this job
	defer func() {
		if r := recover(); r != nil {
			// Panic escaped from j.done() after the job itself completed:
			// swallow it so the worker lives; the job's accounting stands.
			e.obs.panics.Inc()
		}
	}()
	defer j.done()
	defer func() {
		if r := recover(); r != nil {
			j.res.ID = j.req.ID
			j.res.Err = fmt.Sprintf("internal error: recovered panic: %v", r)
			e.obs.panics.Inc()
			if !counted {
				e.obs.errs.Inc()
			}
		}
	}()
	queueD := dequeued.Sub(j.enq)
	fail := func(msg string) {
		e.obs.queueHist.Observe(queueD.Seconds())
		j.res.ID = j.req.ID
		j.res.Err = msg
		e.obs.errs.Inc()
		counted = true
	}
	if m == nil {
		fail("no model loaded")
		return
	}
	if d := e.cfg.RequestTimeout; d > 0 && queueD > d {
		e.obs.timeouts.Inc()
		fail(fmt.Sprintf("request timed out after %v in queue (limit %v)", queueD, d))
		return
	}
	if err := ValidateFeatures(j.req.Features); err != nil {
		e.obs.invalid.Inc()
		fail(err.Error())
		return
	}
	if f := e.cfg.InjectFault; f != nil {
		if err := f(&j.req); err != nil {
			fail(err.Error())
			return
		}
	}
	if j.req.Explain && m.tree == nil {
		fail(errExplainForest)
		return
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t0 := time.Now()
	if len(ws.row) != len(m.plan) {
		ws.row = make([]float64, len(m.plan))
	}
	if len(ws.acc) != len(m.bp.Classes()) {
		ws.acc = make([]float64, len(m.bp.Classes()))
	}
	m.fillRow(ws.rawRow(m, j), ws.row)
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t1 := time.Now()
	normD := t1.Sub(t0)

	var cls string
	var exp *c45.Explanation
	switch {
	case j.req.Explain:
		exp = m.tree.PredictRowExplain(ws.row)
		cls = exp.Class
	case m.tree != nil:
		cls = m.tree.PredictRowInto(ws.row, ws.acc)
	default:
		cls = m.bp.PredictRow(ws.row)
	}
	//lint:ignore virtclock stage timings for /metrics histograms are wall time by design
	t2 := time.Now()
	predD := t2.Sub(t1)
	totalD := t2.Sub(j.enq)

	sev, cause := ParseClass(cls)
	*j.res = Result{ID: j.req.ID, Class: cls, Severity: sev, Cause: cause, Explain: exp}
	if exp != nil {
		j.res.Rule = exp.Rule()
	}

	if tr := e.cfg.Tracer; tr.Enabled() {
		// The engine measures stages with its own monotonic stopwatch;
		// anchor the spans on the tracer clock ending now.
		end := tr.Now()
		reqID := tr.RecordSpan("serve", "request", "id="+j.req.ID+" class="+cls, 0, end-totalD, totalD)
		tr.RecordSpan("serve", "queue", "", reqID, end-totalD, queueD)
		tr.RecordSpan("serve", "normalize", "", reqID, end-normD-predD, normD)
		tr.RecordSpan("serve", "predict", "", reqID, end-predD, predD)
		tid := strconv.FormatUint(uint64(reqID), 16)
		j.res.TraceID = tid
		e.obs.queueHist.ObserveExemplar(queueD.Seconds(), tid)
		e.obs.normHist.ObserveExemplar(normD.Seconds(), tid)
		e.obs.predHist.ObserveExemplar(predD.Seconds(), tid)
		e.obs.totalHist.ObserveExemplar(totalD.Seconds(), tid)
	} else {
		e.obs.queueHist.Observe(queueD.Seconds())
		e.obs.normHist.Observe(normD.Seconds())
		e.obs.predHist.Observe(predD.Seconds())
		e.obs.totalHist.Observe(totalD.Seconds())
	}
	e.obs.requests.Inc()
	counted = true
}

// obs bundles the engine's metric handles; names are documented in
// docs/SERVING.md.
//
// Accounting invariant (checked by internal/chaos and vqserve's drain):
// once the engine is drained, submitted == requests + errs. Shed
// requests never enter the pipeline and are counted only in shed.
type obs struct {
	requests, shed, errs, reloads *metrics.Counter
	submitted, panics, timeouts   *metrics.Counter
	invalid, retries, reloadFails *metrics.Counter
	inflight                      *metrics.Gauge
	modelNodes, modelTrees        *metrics.Gauge
	modelLoad                     *metrics.Gauge
	queueHist, normHist, predHist *metrics.Histogram
	totalHist, batchSize          *metrics.Histogram
}

func newObs(reg *metrics.Registry) *obs {
	stage := func(s string) *metrics.Histogram {
		return reg.Histogram(fmt.Sprintf("vqserve_stage_latency_seconds{stage=%q}", s),
			"per-stage request latency", metrics.LatencyBuckets)
	}
	return &obs{
		requests:    reg.Counter("vqserve_requests_total", "requests classified"),
		shed:        reg.Counter("vqserve_shed_total", "requests rejected by the shed policy"),
		errs:        reg.Counter("vqserve_errors_total", "requests that failed to classify"),
		reloads:     reg.Counter("vqserve_model_reloads_total", "model hot reloads"),
		submitted:   reg.Counter("vqserve_submitted_total", "requests accepted into a shard queue"),
		panics:      reg.Counter("vqserve_panics_recovered_total", "worker panics recovered"),
		timeouts:    reg.Counter("vqserve_timeouts_total", "requests expired in queue past RequestTimeout"),
		invalid:     reg.Counter("vqserve_invalid_total", "requests rejected for non-finite feature values"),
		retries:     reg.Counter("vqserve_retries_total", "shed requests re-submitted with backoff"),
		reloadFails: reg.Counter("vqserve_reload_failures_total", "model reload attempts that failed (engine degraded)"),
		inflight:    reg.Gauge("vqserve_inflight", "requests currently in the pipeline"),
		modelNodes:  reg.Gauge("vqserve_model_nodes", "compiled nodes in the serving model"),
		modelTrees:  reg.Gauge("vqserve_model_trees", "trees in the serving model (1 = single tree)"),
		modelLoad:   reg.Gauge("vqserve_model_load_seconds", "how long loading the serving model took"),
		queueHist:   stage("queue"),
		normHist:    stage("normalize"),
		predHist:    stage("predict"),
		totalHist:   stage("total"),
		batchSize: reg.Histogram("vqserve_batch_size", "jobs drained per worker wakeup",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}
