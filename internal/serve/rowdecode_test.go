package serve

// Tests for the /diagnose row decoding: the fast-path scanner against
// encoding/json (FuzzRowDecode), real probe rows, re-projection after a
// hot reload, and the missing-feature counter.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/rowcodec"
	"vqprobe/internal/testbed"
)

var (
	probeOnce sync.Once
	probeFVs  []metrics.Vector
)

// probeVectors returns real merged feature vectors from seeded
// controlled-testbed sessions: every metric of all three vantage
// points, as a collector would post them.
func probeVectors(tb testing.TB) []metrics.Vector {
	tb.Helper()
	probeOnce.Do(func() {
		for _, s := range testbed.GenerateControlled(testbed.GenConfig{Sessions: 8, Seed: 13, Workers: 1}) {
			if fv := s.Combined("mobile", "router", "server"); len(fv) > 0 {
				probeFVs = append(probeFVs, fv)
			}
		}
	})
	if len(probeFVs) == 0 {
		tb.Fatal("no probe rows generated")
	}
	return probeFVs
}

// probeLine renders one request line the way clients do: encoding/json
// over the feature map.
func probeLine(tb testing.TB, id string, fv metrics.Vector, explain bool) []byte {
	tb.Helper()
	js, err := json.Marshal(Request{ID: id, Features: fv, Explain: explain})
	if err != nil {
		tb.Fatal(err)
	}
	return js
}

// fuzzKeys is FuzzRowDecode's projection: the fixtures' feature names,
// real probe names, and names that collide with the row's own keys.
var fuzzKeys = rowcodec.NewKeys([]string{
	"mobile.rtt", "mobile.loss", "a", "", "id", "features", "explain",
	"mobile.tcp_total_pkts", "router.tcp_s2c_rtt_ms_avg", "server.tcp_duration_s",
	"mobile.tcp_c2s_retrans_pkts", "mobile.throughput_bps_avg",
})

// FuzzRowDecode is the scanner's differential contract: whenever
// rowcodec.Scan accepts a line, encoding/json accepts it too and
// decodes the same id, explain flag and projected values; whether a
// line scans does not depend on the key set.
func FuzzRowDecode(f *testing.F) {
	// FuzzDiagnoseNDJSON's corpus, line by line, plus one real probe row
	// and shapes at the fast path's edges.
	for _, body := range []string{
		`{"id":"a","features":{"mobile.rtt":50,"mobile.loss":0}}`,
		`{"id":"a","features":{"mobile.rtt":1e999}}`,
		"{}\n\n{}",
		`{"id":"a","features":{"mobile.rtt":"NaN"}}`,
		`{"id":"a","explain":true,"features":{}}`,
		"\x00\xff\xfe\n{broken",
		``,
		`{"ID":"a","features":{"mobile.rtt":1}}`,
		`{"id":"a","features":{"mobile\u002ertt":1},"features":{"mobile.loss":-0.0e-2}}`,
		`{"id":null,"explain":false,"features":{"mobile.rtt":null}}`,
		` { "id" : "x" , "features" : { "a" : 1.5E+300 , "b" : 12e307 } } `,
	} {
		for _, line := range strings.Split(body, "\n") {
			f.Add([]byte(line))
		}
	}
	f.Add(probeLine(f, "probe-0", probeVectors(f)[0], false))

	f.Fuzz(func(t *testing.T, line []byte) {
		vals := make([]float64, fuzzKeys.Len())
		id, explain, ok := rowcodec.Scan(line, fuzzKeys, vals)
		if _, _, bare := rowcodec.Scan(line, nil, nil); bare != ok {
			t.Fatalf("Scan accepts %q with the key set: %v, without: %v", line, ok, bare)
		}
		var ref Request
		err := json.Unmarshal(line, &ref)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("Scan accepted %q, encoding/json rejects it: %v", line, err)
		}
		if id != ref.ID || explain != ref.Explain {
			t.Fatalf("%q: Scan id=%q explain=%v, encoding/json id=%q explain=%v", line, id, explain, ref.ID, ref.Explain)
		}
		want := make([]float64, fuzzKeys.Len())
		fuzzKeys.Project(ref.Features, want)
		for i := range want {
			if math.Float64bits(vals[i]) != math.Float64bits(want[i]) && !(math.IsNaN(vals[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%q: %s = %v, encoding/json has %v", line, fuzzKeys.Names()[i], vals[i], want[i])
			}
		}
	})
}

// TestProbeRowsTakeFastPath pins the point of the scanner: real probe
// rows, plain or explain, decode on the fast path to encoding/json's
// values.
func TestProbeRowsTakeFastPath(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	raw := make([]float64, m.keys.Len())
	for i, fv := range probeVectors(t) {
		line := probeLine(t, fmt.Sprintf("s%d", i), fv, i%2 == 0)
		req, fast, err := DecodeLine(line, m.keys, raw)
		if err != nil || !fast {
			t.Fatalf("row %d (%d keys): fast=%v err=%v", i, len(fv), fast, err)
		}
		if req.ID != fmt.Sprintf("s%d", i) || req.Explain != (i%2 == 0) || req.Features != nil {
			t.Fatalf("row %d decoded as %+v", i, req)
		}
		want := make([]float64, m.keys.Len())
		m.keys.Project(fv, want)
		for k := range want {
			if raw[k] != want[k] && !(math.IsNaN(raw[k]) && math.IsNaN(want[k])) {
				t.Fatalf("row %d %s: %v, want %v", i, m.keys.Names()[k], raw[k], want[k])
			}
		}
	}
}

// divisorModel is trained on a different schema from testModel, with a
// ratio-normalized counter: its raw-row layout has a divisor slot.
func divisorModel(t testing.TB) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var insts []ml.Instance
	for i := 0; i < 300; i++ {
		fv := metrics.Vector{
			"mobile.tcp_c2s_retrans_pkts": float64(rng.Intn(50)),
			"mobile.tcp_total_pkts":       float64(100 + rng.Intn(900)),
			"mobile.jitter":               rng.Float64() * 80,
		}
		cls := "good"
		if fv["mobile.tcp_c2s_retrans_pkts"]/fv["mobile.tcp_total_pkts"] > 0.03 {
			cls = "wan_severe"
		} else if fv["mobile.jitter"] > 40 {
			cls = "wan_mild"
		}
		insts = append(insts, ml.Instance{Features: fv, Class: cls})
	}
	constructed, norm := features.Construct(ml.NewDataset(insts))
	ct, err := c45.Compile(c45.Default().TrainTree(constructed))
	if err != nil {
		t.Fatal(err)
	}
	return NewModel("exact", norm, ct)
}

// TestReloadReprojectsDecodedRows: a row decoded (and projected) under
// snapshot A but classified after a reload to B gets B's answer, as it
// did when rows were carried as maps.
func TestReloadReprojectsDecodedRows(t *testing.T) {
	a, b := testModel(t, "lan_cong_severe"), divisorModel(t)
	gate := make(chan struct{})
	e := NewEngine(a, Config{Shards: 1, MaxBatch: 1, InjectFault: func(r *Request) error {
		if r.ID == "blocker" {
			<-gate
		}
		return nil
	}})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// Wedge the only worker, so the HTTP row decodes under A and waits.
	blocked := make(chan []Result, 1)
	go func() { blocked <- e.DiagnoseBatch([]Request{{ID: "blocker", Features: fv(20, 0)}}) }()
	fvs := []metrics.Vector{
		{"mobile.rtt": 180, "mobile.loss": 9, "mobile.tcp_c2s_retrans_pkts": 40, "mobile.tcp_total_pkts": 200, "mobile.jitter": 10},
		{"mobile.rtt": 20, "mobile.loss": 0, "mobile.tcp_c2s_retrans_pkts": 1, "mobile.tcp_total_pkts": 900, "mobile.jitter": 70},
	}
	var body bytes.Buffer
	for i, fv := range fvs {
		body.Write(probeLine(t, fmt.Sprintf("r%d", i), fv, false))
		body.WriteByte('\n')
	}
	type answer struct {
		out []byte
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/diagnose", "application/x-ndjson", &body)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- answer{out, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if sub, _, _, _ := e.Counters(); sub == 1+uint64(len(fvs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("HTTP rows never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	e.Reload(b)
	close(gate)
	<-blocked
	got := <-answered
	if got.err != nil {
		t.Fatal(got.err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i, fv := range fvs {
		r := b.Diagnose(fv)
		r.ID = fmt.Sprintf("r%d", i)
		enc.Encode(r)
	}
	if !bytes.Equal(got.out, want.Bytes()) {
		t.Fatalf("rows decoded under A, classified after reload to B:\n got %s\nwant %s", got.out, want.Bytes())
	}
}

// TestFeatureMissingCounter: a row lacking one schema feature moves
// exactly that feature's vqserve_feature_missing_total series.
func TestFeatureMissingCounter(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	if s := m.Schema(); len(s) != 2 {
		t.Fatalf("fixture schema %v, want mobile.rtt and mobile.loss", s)
	}
	e := NewEngine(m, Config{Shards: 1})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	body := `{"id":"a","features":{"mobile.rtt":150,"unrelated":1}}` + "\n" +
		`{"id":"b","features":{"mobile.rtt":20,"mobile.loss":0}}` + "\n"
	resp, err := http.Post(srv.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var prom bytes.Buffer
	e.Registry().WriteText(&prom)
	if got := metricValue(t, prom.String(), `vqserve_feature_missing_total{feature="mobile.loss"}`); got != 1 {
		t.Errorf("mobile.loss missing = %v, want 1", got)
	}
	if got := metricValue(t, prom.String(), `vqserve_feature_missing_total{feature="mobile.rtt"}`); got != 0 {
		t.Errorf("mobile.rtt missing = %v, want 0", got)
	}
}

// BenchmarkDecodeRow decodes one real full probe row (every metric of
// three vantage points) per iteration the way /diagnose does: the fast
// path, projected onto a model's raw-row layout.
func BenchmarkDecodeRow(b *testing.B) {
	m := testModel(b, "lan_cong_severe")
	line := probeLine(b, "sess-0", probeVectors(b)[0], false)
	raw := make([]float64, m.keys.Len())
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fast, err := DecodeLine(line, m.keys, raw); !fast || err != nil {
			b.Fatalf("fast=%v err=%v", fast, err)
		}
	}
}

// BenchmarkDecodeRowJSON is BenchmarkDecodeRow's reference: the same
// row through encoding/json into Request, as every row was decoded
// before the fast path.
func BenchmarkDecodeRowJSON(b *testing.B) {
	line := probeLine(b, "sess-0", probeVectors(b)[0], false)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			b.Fatal(err)
		}
	}
}
