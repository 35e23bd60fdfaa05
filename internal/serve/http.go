package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"vqprobe/internal/rowcodec"
)

// Handler returns the engine's HTTP surface:
//
//	GET  /healthz   liveness + model summary (503 until a model is loaded)
//	GET  /metrics   Prometheus text exposition
//	POST /diagnose  NDJSON batch: one {"id","features"} object per line
//	                (add "explain":true for the decision path), one
//	                result object per line, input order preserved
//	POST /-/reload  re-run Config.ReloadFunc and hot-swap the model
//
// When Config.Tracer is set, GET /debug/trace dumps the span ring
// buffer — Chrome trace_event JSON by default (load it in Perfetto),
// NDJSON with ?format=ndjson.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.reg.Handler())
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/diagnose", e.handleDiagnose)
	mux.HandleFunc("/-/reload", e.handleReload)
	if e.cfg.Tracer != nil {
		mux.HandleFunc("/debug/trace", e.handleTrace)
	}
	return mux
}

func (e *Engine) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := e.cfg.Tracer
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Mid-response write errors mean the client hung up; the status
		// line is already gone, so there is nothing useful to send back.
		_ = tr.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChromeTrace(w)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := e.model.Load()
	w.Header().Set("Content-Type", "application/json")
	if m == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "no model"})
		return
	}
	body := map[string]any{
		"status":   "ok",
		"task":     m.Task(),
		"features": len(m.Schema()),
		"classes":  len(m.Classes()),
		"model":    m.Info(),
		"shards":   len(e.shards),
		//lint:ignore virtclock daemon uptime for /healthz is wall time by design
		"uptime_seconds": int64(time.Since(e.start).Seconds()),
	}
	// A failed reload leaves the engine answering from the last-good
	// snapshot: alive (200) but degraded, and /healthz says why.
	if msg := e.LastReloadError(); msg != "" {
		body["status"] = "degraded"
		body["last_reload_error"] = msg
	}
	if f := e.cfg.AlertsFunc; f != nil {
		body["alerts"] = f()
	}
	json.NewEncoder(w).Encode(body)
}

// DecodeLine decodes one /diagnose request line. A line rowcodec.Scan
// accepts comes back with the second result true: the Request has the
// id and explain flag and a nil Features map, and raw holds the values
// projected onto keys (NaN where absent). Any other line is decoded by
// encoding/json into the Request; the error is then its verdict, and
// its text is what both the router and the replica report for the
// line. raw must hold keys.Len() values.
func DecodeLine(line []byte, keys *rowcodec.Keys, raw []float64) (Request, bool, error) {
	if id, explain, ok := rowcodec.Scan(line, keys, raw); ok {
		return Request{ID: id, Explain: explain}, true, nil
	}
	var req Request // escapes to encoding/json: declared here, it costs the fast path nothing
	err := json.Unmarshal(line, &req)
	return req, false, err
}

func (e *Engine) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON to /diagnose", http.StatusMethodNotAllowed)
		return
	}
	sc, release := rowcodec.NewScanner(r.Body)
	defer release()
	// Fast-path rows are projected onto the snapshot current at decode
	// time; a worker holding a newer one re-projects them from their
	// retained bytes, kept in one pooled arena until the batch is done.
	m := e.model.Load()
	var keys *rowcodec.Keys
	if m != nil {
		keys = m.keys
	}
	k := keys.Len()
	arena := rowcodec.GetBuf()
	defer rowcodec.PutBuf(arena)

	// Decode every line first so one malformed line fails fast with a
	// per-line error instead of poisoning the whole batch.
	var (
		results []Result
		jobs    []job
		fast    []fastRow
		raws    []float64
		slots   []int // result index per submitted request
		lineno  int   // true input line number, blank lines included
	)
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		at := len(raws)
		raws = append(raws, make([]float64, k)...)
		req, ok, err := DecodeLine(line, keys, raws[at:])
		if err != nil {
			raws = raws[:at]
			results = append(results, Result{Err: rowcodec.LineError(lineno, err)})
			continue
		}
		if ok {
			fast = append(fast, fastRow{job: len(jobs), from: len(*arena), raw: at})
			*arena = append(*arena, line...)
		} else {
			raws = raws[:at]
		}
		slots = append(slots, len(results))
		results = append(results, Result{})
		jobs = append(jobs, job{req: req})
	}
	if err := sc.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(results) == 0 {
		http.Error(w, "empty request body", http.StatusBadRequest)
		return
	}
	// The arena and the raw rows are final only now that every line is
	// in: slice them out for the fast-path jobs.
	for i, f := range fast {
		to := len(*arena)
		if i+1 < len(fast) {
			to = fast[i+1].from
		}
		j := &jobs[f.job]
		j.line, j.raw, j.proj = (*arena)[f.from:to:to], raws[f.raw:f.raw+k:f.raw+k], m
	}
	for i, res := range e.runBatch(len(jobs), func(i int) job { return jobs[i] }) {
		results[slots[i]] = res
	}
	// The client may have hung up while the batch was in flight (the
	// server cancels the request context on disconnect). The engine
	// work is already done and accounted — results are simply not worth
	// serializing to a dead socket.
	if r.Context().Err() != nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range results {
		// A write error means the client went away; stop encoding the
		// rest of the batch instead of churning through a dead socket.
		if err := enc.Encode(&results[i]); err != nil {
			return
		}
	}
}

// fastRow locates one fast-path row's retained line in the handler's
// arena and its raw values in the raw-row buffer while the body is
// still being read.
type fastRow struct{ job, from, raw int }

func (e *Engine) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to /-/reload", http.StatusMethodNotAllowed)
		return
	}
	if e.cfg.ReloadFunc == nil {
		http.Error(w, "no reload source configured", http.StatusNotImplemented)
		return
	}
	m, err := e.cfg.ReloadFunc()
	if err != nil {
		// Keep serving the last-good snapshot; /healthz turns degraded.
		e.NoteReloadError(err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	e.Reload(m)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"status": "reloaded", "features": len(m.Schema())})
}
