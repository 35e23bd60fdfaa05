package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"vqprobe/internal/metrics"
	"vqprobe/internal/trace"
)

// parentHeader carries the caller's span ID across a loopback HTTP hop
// so the receiving handler's span can name its parent.
const parentHeader = "X-Perfbench-Parent"

// spanKey is the request-context key under which a wrapping handler
// stores its span ID for the router's upstream RoundTripper to read.
type spanKey struct{}

// tracing records the benchmark's spans around each layer's public
// entry point. Spans are recorded only while on is set, so one topology
// serves both the untraced and the traced pass of a traced run.
type tracing struct {
	tr *trace.Tracer
	on atomic.Bool
}

// traceCapacity is the ring's size in events. It holds one traced
// window: at two spans per lookup, about 130k lookups.
const traceCapacity = 1 << 18

func newTracing() *tracing {
	return &tracing{tr: trace.New(trace.Config{Capacity: traceCapacity})}
}

// start opens a span when tracing is on; otherwise it returns the inert
// zero Span. Safe on a nil receiver.
func (t *tracing) start(track, name string, parent trace.SpanID) trace.Span {
	if t == nil || !t.on.Load() {
		return trace.Span{}
	}
	return t.tr.StartSpan(track, name, parent)
}

// handler wraps an HTTP handler in a span parented by the caller's
// parentHeader, and exposes the span's ID to the handler through the
// request context.
func (t *tracing) handler(track string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		sp := t.tr.StartSpan(track, "handle", trace.SpanID(parent))
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.ID())))
		sp.End()
	})
}

// spanTransport is the router's upstream RoundTripper in traced runs:
// one span per router→replica call, parented by the router handler's
// span found in the request context, lasting until the response body
// is closed.
type spanTransport struct {
	t    *tracing
	base http.RoundTripper
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !st.t.on.Load() {
		return st.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(trace.SpanID)
	sp := st.t.tr.StartSpan("route", "upstream", parent)
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(uint64(sp.ID()), 10))
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		sp.EndDetail("error")
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the router closes the response body.
type spanBody struct {
	io.ReadCloser
	sp   trace.Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}

// writeChromeTrace writes the recorded spans as Chrome trace_event JSON
// (loadable in Perfetto) and returns the file's path.
func (t *tracing) writeChromeTrace(name string) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.tr.WriteChromeTrace(f); err != nil {
		return "", errors.Join(err, f.Close())
	}
	return path, f.Close()
}

// spanIndex links recorded spans to their children.
type spanIndex struct {
	kids map[trace.SpanID][]trace.Event
	all  []trace.Event
}

func indexSpans(evs []trace.Event) *spanIndex {
	ix := &spanIndex{kids: map[trace.SpanID][]trace.Event{}, all: evs}
	for _, ev := range evs {
		if ev.Kind == trace.KindSpan && ev.Parent != 0 {
			ix.kids[ev.Parent] = append(ix.kids[ev.Parent], ev)
		}
	}
	return ix
}

// roots returns the parentless spans with the given track and name.
func (ix *spanIndex) roots(track, name string) []trace.Event {
	var out []trace.Event
	for _, ev := range ix.all {
		if ev.Kind == trace.KindSpan && ev.Parent == 0 && ev.Track == track && ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// child returns the span's longest child on the given track, and how
// many children it has there.
func (ix *spanIndex) child(id trace.SpanID, track string) (trace.Event, int) {
	var best trace.Event
	n := 0
	for _, k := range ix.kids[id] {
		if k.Track != track {
			continue
		}
		n++
		if k.Dur > best.Dur {
			best = k
		}
	}
	return best, n
}

// engineStats are the serve engine's own stage histograms, read from
// its metrics registry (sums in seconds).
type engineStats struct {
	queue, norm, pred, total, batch hist
}

type hist struct {
	sum float64
	n   uint64
}

func (h hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

func (h hist) sub(o hist) hist { return hist{sum: h.sum - o.sum, n: h.n - o.n} }

func (h hist) add(o hist) hist { return hist{sum: h.sum + o.sum, n: h.n + o.n} }

func readEngine(regs ...*metrics.Registry) engineStats {
	var s engineStats
	for _, reg := range regs {
		for _, ss := range reg.Snapshot() {
			var h *hist
			switch ss.FullName() {
			case `vqserve_stage_latency_seconds{stage="queue"}`:
				h = &s.queue
			case `vqserve_stage_latency_seconds{stage="normalize"}`:
				h = &s.norm
			case `vqserve_stage_latency_seconds{stage="predict"}`:
				h = &s.pred
			case `vqserve_stage_latency_seconds{stage="total"}`:
				h = &s.total
			case "vqserve_batch_size":
				h = &s.batch
			default:
				continue
			}
			h.sum += ss.Sum
			h.n += ss.Count
		}
	}
	return s
}

func (s engineStats) sub(o engineStats) engineStats {
	return engineStats{s.queue.sub(o.queue), s.norm.sub(o.norm), s.pred.sub(o.pred),
		s.total.sub(o.total), s.batch.sub(o.batch)}
}

func (s engineStats) add(o engineStats) engineStats {
	return engineStats{s.queue.add(o.queue), s.norm.add(o.norm), s.pred.add(o.pred),
		s.total.add(o.total), s.batch.add(o.batch)}
}

// tracedTotals are the engine-stage and runtime deltas of a traced
// run's traced windows, and the spans those windows recorded.
type tracedTotals struct {
	eng     engineStats
	allocMB float64
	gcs     uint32
	events  []trace.Event
}

// alternate runs pairs of untraced and traced windows. Alternating keeps
// machine drift from passing for tracing overhead; only the traced
// windows record spans and count towards the totals. Each traced window
// starts on an empty ring and its spans are copied out after it, so the
// ring holds one window at a time and the last window's stay for the
// Chrome trace. A window that overflows the ring is an error: its span
// means would cover fewer requests than the registry figures they are
// set against.
func alternate(tr *tracing, pairs int, regs []*metrics.Registry, plain, traced func(i int)) (tracedTotals, error) {
	var tot tracedTotals
	for i := 0; i < pairs; i++ {
		plain(i)
		tr.tr.Reset()
		e0 := readEngine(regs...)
		mem := startMem()
		tr.on.Store(true)
		traced(i)
		tr.on.Store(false)
		_, allocMB, gcs := mem.stop()
		tot.eng = tot.eng.add(readEngine(regs...).sub(e0))
		tot.allocMB += allocMB
		tot.gcs += gcs
		if err := tr.checkDropped(); err != nil {
			return tot, err
		}
		tot.events = append(tot.events, tr.tr.Events()...)
	}
	return tot, nil
}

// checkDropped fails when the ring overwrote spans.
func (t *tracing) checkDropped() error {
	if d := t.tr.Dropped(); d > 0 {
		return fmt.Errorf("trace ring of %d events overflowed by %d; per-layer means would be skewed", traceCapacity, d)
	}
	return nil
}

// ledger is the mean critical path of a traced pass's requests in ms:
// client self time, router self time (the router span minus its longest
// upstream span), transport (that upstream span minus its replica
// span) and the replica span on that path. The router parts are zero
// on a direct deployment.
type ledger struct {
	n                                   float64 // requests
	e2e, client, route, upstream, trans float64
	replica                             float64 // the replica span on the critical path
	handle                              float64 // every replica span, not only the critical one
	subreqs                             float64
}

// ledgerOf walks every client request span to the spans under it.
func ledgerOf(evs []trace.Event) (ledger, error) {
	ix := indexSpans(evs)
	var l ledger
	handles := 0
	for _, cs := range ix.roots("client", "request") {
		l.n++
		l.e2e += ms(cs.Dur)
		rs, routed := ix.child(cs.ID, "route")
		if routed == 0 {
			ss, _ := ix.child(cs.ID, "serve")
			l.client += ms(cs.Dur - ss.Dur)
			l.replica += ms(ss.Dur)
			l.handle += ms(ss.Dur)
			handles++
			continue
		}
		up, k := ix.child(rs.ID, "route")
		ss, _ := ix.child(up.ID, "serve")
		l.client += ms(cs.Dur - rs.Dur)
		l.route += ms(rs.Dur - up.Dur)
		l.upstream += ms(up.Dur)
		l.trans += ms(up.Dur - ss.Dur)
		l.replica += ms(ss.Dur)
		l.subreqs += float64(k)
		for _, u := range ix.kids[rs.ID] {
			for _, s := range ix.kids[u.ID] {
				l.handle += ms(s.Dur)
				handles++
			}
		}
	}
	if l.n == 0 || handles == 0 {
		return l, fmt.Errorf("traced pass recorded no complete request spans")
	}
	l.handle /= float64(handles)
	for _, f := range []*float64{&l.e2e, &l.client, &l.route, &l.upstream, &l.trans, &l.replica, &l.subreqs} {
		*f /= l.n
	}
	return l, nil
}

// counter reads one counter series from a registry.
func counter(reg *metrics.Registry, name string) float64 {
	for _, ss := range reg.Snapshot() {
		if ss.FullName() == name {
			return ss.Value
		}
	}
	return 0
}

// setEngine reports the engine-layer per-layer metrics from a registry
// delta.
func setEngine(rec *recorder, d engineStats) {
	rec.layer("serve.queue_ms", "ms", d.queue.mean()*1e3)
	rec.layer("serve.normalize_us", "us", d.norm.mean()*1e6)
	rec.layer("serve.predict_us", "us", d.pred.mean()*1e6)
	rec.layer("serve.batch_size_mean", "count", d.batch.mean())
}
