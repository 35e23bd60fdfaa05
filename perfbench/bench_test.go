package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
)

// quick is a run small enough for a test: every layer is still driven,
// on a few dozen sessions and a two-second budget.
func quick(workload string) options {
	return options{workload: workload, seed: 3, seconds: 2, size: sizes{
		trainSessions: 40, heldOut: 6, labSessions: 200, fleetSessions: 5000, setupReps: 2,
	}}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryListedMetricIsPrinted runs every workload of BENCHMARK.json
// untraced and traced, and checks that each run answers correctly and
// prints every metric the file lists, with the file's unit.
func TestEveryListedMetricIsPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", bf)
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			o := quick(w.Name)
			o.trace = traced
			rec, res, err := run(o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rec.failures)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): printed %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not printed", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s printed in %q, listed in %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
				}
			}
		}
	}
}

// corruptOne wraps a replica so that the first /diagnose answer it
// serves has its first row's class replaced.
func corruptOne(done *atomic.Bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/diagnose" || done.Load() {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if i := bytes.Index(body, []byte(`"class":"`)); i >= 0 && done.CompareAndSwap(false, true) {
				body = append(append(append([]byte{}, body[:i]...), `"class":"corrupted","was":"`...), body[i+len(`"class":"`):]...)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestOracleCatchesCorruptedAnswer shows the correctness oracle firing:
// one corrupted class in a whole run must make it incorrect.
func TestOracleCatchesCorruptedAnswer(t *testing.T) {
	for _, w := range []string{"route-bulk", "serve-lookup"} {
		var done atomic.Bool
		o := quick(w)
		o.wrapReplica = corruptOne(&done)
		rec, res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !done.Load() {
			t.Fatalf("%s: no answer was corrupted", w)
		}
		if rec.errorRate() <= 0 || res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted answer not caught: error_rate=%v correct=%v failed=%d",
				w, rec.errorRate(), res.Correct, res.Failed)
		}
	}
}
