package route

// Row-decoding contract across tiers: /diagnose on a replica and on the
// router in front of real replicas must answer every line byte for byte
// as a handler that decodes each line with encoding/json would, with
// the client's line numbers.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
	"vqprobe/internal/testbed"
)

var (
	probeOnce  sync.Once
	probeModel *serve.Model
	probeFVs   []metrics.Vector
)

// probeFixture trains a tree on seeded controlled-testbed sessions and
// keeps held-out sessions' full merged rows (every metric of all three
// vantage points) as request traffic.
func probeFixture(tb testing.TB) (*serve.Model, []metrics.Vector) {
	tb.Helper()
	probeOnce.Do(func() {
		vps := []string{"mobile", "router", "server"}
		train := testbed.GenerateControlled(testbed.GenConfig{Sessions: 60, Seed: 21, Workers: 1})
		constructed, norm := features.Construct(testbed.ToDataset(train, vps, testbed.ExactLabel))
		ct, err := c45.Compile(c45.Default().TrainTree(constructed))
		if err != nil {
			panic(err)
		}
		probeModel = serve.NewModel("exact", norm, ct)
		for _, s := range testbed.GenerateControlled(testbed.GenConfig{Sessions: 12, Seed: 22, Workers: 1}) {
			if fv := s.Combined(vps...); len(fv) > 0 {
				probeFVs = append(probeFVs, fv)
			}
		}
	})
	if len(probeFVs) == 0 {
		tb.Fatal("no probe rows generated")
	}
	return probeModel, probeFVs
}

func probeLine(tb testing.TB, id string, fv metrics.Vector, explain bool) string {
	tb.Helper()
	js, err := json.Marshal(serve.Request{ID: id, Features: fv, Explain: explain})
	if err != nil {
		tb.Fatal(err)
	}
	return string(js)
}

// referenceHandler is /diagnose with every line decoded by
// encoding/json into serve.Request, the decoding the row codec must
// reproduce.
func referenceHandler(e *serve.Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var (
			results []serve.Result
			reqs    []serve.Request
			slots   []int
			lineno  int
		)
		for sc.Scan() {
			lineno++
			if len(sc.Bytes()) == 0 {
				continue
			}
			var req serve.Request
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
				results = append(results, serve.Result{Err: fmt.Sprintf("line %d: %v", lineno, err)})
				continue
			}
			slots = append(slots, len(results))
			results = append(results, serve.Result{})
			reqs = append(reqs, req)
		}
		if err := sc.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(results) == 0 {
			http.Error(w, "empty request body", http.StatusBadRequest)
			return
		}
		for i, res := range e.DiagnoseBatch(reqs) {
			results[slots[i]] = res
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := range results {
			enc.Encode(&results[i])
		}
	})
}

func post(t *testing.T, h http.Handler, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// decodeCorpus is the replay corpus: the shapes on and around the fast
// path, one per line, with blank lines between some of them.
func decodeCorpus(t *testing.T, fvs []metrics.Vector) []string {
	lines := []string{
		`{"id":"plain","features":{"mobile.rtt":150,"mobile.loss":8}}`,
		`{"id":"dup-id","id":"dup-id-2","features":{"mobile.rtt":150}}`,
		`{"id":"dup-key","features":{"mobile.rtt":150,"mobile.rtt":20}}`,
		`{"id":"dup-features","features":{"mobile.rtt":150},"features":{"mobile.loss":8}}`,
		`{"ID":"upper","features":{"mobile.rtt":150}}`,
		`{"Id":"mixed","Features":{"mobile.rtt":150},"EXPLAIN":true}`,
		`{"id":"escaped-key","features":{"mobile\u002ertt":150}}`,
		`{"id":"caf\u00e9","features":{}}`,
		`{"id":"café","features":{}}`,
		`{"id":"unknown-key","features":{},"extra":[1,{"a":null}]}`,
		`{"id":null,"features":null}`,
		`{"id":"null-value","features":{"mobile.rtt":null}}`,
		`{"id":"huge","features":{"mobile.rtt":1e999}}`,
		`{"id":"tiny","features":{"mobile.rtt":1e-999,"mobile.loss":-0}}`,
		`{"id":"string-value","features":{"mobile.rtt":"x"}}`,
		`{"id":"bool-explain","explain":"yes","features":{}}`,
		`{"id":7,"features":{}}`,
		`{"id":"explain-false","explain":false,"features":{"mobile.rtt":20}}`,
		` { "id" : "spaced" , "features" : { "mobile.rtt" : 1.5E+2 } } `,
		`{"id":"trailing"} x`,
		`{broken`,
		`[1]`,
		`{}`,
	}
	for i, fv := range fvs {
		lines = append(lines, probeLine(t, fmt.Sprintf("probe-%d", i), fv, i%3 == 0))
	}
	return lines
}

// TestDiagnoseBytesMatchReference replays the corpus through a real
// replica and through the router in front of two, whole and line by
// line, and compares every response byte with the encoding/json
// reference handler.
func TestDiagnoseBytesMatchReference(t *testing.T) {
	m, fvs := probeFixture(t)
	newEngine := func() *serve.Engine {
		e := serve.NewEngine(m, serve.Config{Shards: 2})
		t.Cleanup(func() { e.Close() })
		return e
	}
	ref := referenceHandler(newEngine())
	replica := newEngine().Handler()
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(newEngine().Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	router := newRouter(t, Config{Replicas: urls}).Handler()

	lines := decodeCorpus(t, fvs)
	bodies := []string{strings.Join(lines, "\n\n") + "\n"}
	for _, l := range lines {
		bodies = append(bodies, l+"\n")
	}
	for _, body := range bodies {
		wantCode, want := post(t, ref, body)
		for name, h := range map[string]http.Handler{"replica": replica, "router": router} {
			code, got := post(t, h, body)
			if code != wantCode || got != want {
				t.Errorf("%s on %.80q:\n got %d %s\nwant %d %s", name, body, code, got, wantCode, want)
			}
		}
	}
}

// TestRouterReportsClientLineNumbers is the regression test for rows
// the router used to forward because they were valid JSON: the replica
// then numbered their type errors within its sub-batch. The router now
// answers them itself, numbered as the client sent them, byte for byte
// as the replica does.
func TestRouterReportsClientLineNumbers(t *testing.T) {
	a := startEngine(t, "v1", nil)
	b := startEngine(t, "v1", nil)
	router := newRouter(t, Config{Replicas: []string{a.URL, b.URL}}).Handler()
	body := "\n" +
		`{"id":"b","features":{"mobile.rtt":"x"}}` + "\n" +
		"{broken\n" +
		`{"id":"c","features":{"mobile.rtt":1e999}}` + "\n" +
		ndjson("d")
	_, got := post(t, router, body)
	rows := readRows(t, strings.NewReader(got))
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%s", len(rows), got)
	}
	for i, want := range []string{"line 2: ", "line 3: ", "line 4: "} {
		if !strings.HasPrefix(rows[i].Err, want) {
			t.Errorf("row %d error %q, want prefix %q", i, rows[i].Err, want)
		}
	}
	if rows[3].Class != "lan_cong_severe" {
		t.Errorf("valid row answered %+v", rows[3])
	}
	resp, err := http.Post(a.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got != string(direct) {
		t.Errorf("router and replica disagree:\nrouter  %s\nreplica %s", got, direct)
	}
}

// BenchmarkRouterDiagnoseProbeRows is BenchmarkRouterDiagnose over real
// full probe rows (every metric of three vantage points, 358 keys), so
// the router's per-row decode shows. The stub replicas count lines and
// answer canned rows without decoding, keeping their cost out.
func BenchmarkRouterDiagnoseProbeRows(b *testing.B) {
	_, fvs := probeFixture(b)
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprint(w, `{"status":"ok"}`)
				return
			}
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(bytes.Repeat([]byte(`{"class":"good"}`+"\n"), bytes.Count(body, []byte{'\n'})))
		}))
		b.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt := newRouter(b, Config{Replicas: urls})
	const rows = 32
	var body strings.Builder
	for i := 0; i < rows; i++ {
		body.WriteString(probeLine(b, fmt.Sprintf("sess-%d", i), fvs[i%len(fvs)], false))
		body.WriteByte('\n')
	}
	h := rt.Handler()
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body.String())))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
