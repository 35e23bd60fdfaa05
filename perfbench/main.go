// Command perfbench is the repository's end-to-end benchmark. It drives
// the system from outside, through its public entry points, on one of
// three workloads:
//
//	route-bulk    open-loop 32-row NDJSON batches through an in-process
//	              vqroute in front of two vqserve replicas
//	serve-lookup  closed-loop single-row explain requests straight to one
//	              vqserve replica
//	lab-to-fleet  controlled-testbed sessions → paper pipeline with
//	              10-fold CV → snapshot → engine-scored fleet run
//
// Every answer is checked against a reference computed at set-up. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics at the
// reference host speed (calib.go) with --trace 0, the per-layer metrics
// of a traced run with --trace 1. The line before it is a report stamped
// with the environment (core count, GOMAXPROCS, Go version, CPU model,
// commit, seed) that also holds the end-to-end figures as measured. Run
// it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload route-bulk --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	// wrapReplica, when set, wraps each replica's HTTP handler; the
	// self-test uses it to corrupt an answer and watch the oracle fire.
	wrapReplica func(http.Handler) http.Handler
}

// sizes fixes how much input a run generates. Only the self-test uses
// other than fullSize.
type sizes struct {
	trainSessions int // controlled sessions the online model is trained on
	heldOut       int // held-out sessions per setting (controlled, real-world, wild)
	labSessions   int // lab-to-fleet testbed sessions (a fifth are held out)
	fleetSessions int // sessions per fleet run
	setupReps     int // set-ups per run; setup_s is their median
}

var fullSize = sizes{trainSessions: 80, heldOut: 48, labSessions: 240, fleetSessions: 100_000, setupReps: 7}

// endToEnd lists the end-to-end metrics every workload reports (see
// README.md for what each means on each workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"train_s", "s"},
}

// perLayer lists the per-layer metrics of a traced run. A workload that
// bypasses a layer reports zero work for it.
var perLayer = []struct{ name, unit string }{
	{"error_rate", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"client.self_ms", "ms"},
	{"route.self_ms", "ms"},
	{"route.upstream_ms", "ms"},
	{"route.transport_ms", "ms"},
	{"route.subreqs_per_req", "count"},
	{"route.failovers", "count"},
	{"route.shed_rows", "count"},
	{"serve.handle_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"wire.req_bytes_per_row", "bytes"},
	{"wire.resp_bytes_per_row", "bytes"},
	{"serve.queue_ms", "ms"},
	{"serve.normalize_us", "us"},
	{"serve.predict_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"c45.diagnose_us", "us"},
	{"c45.explain_us", "us"},
	{"c45.predict_vector_us", "us"},
	{"c45.snapshot_roundtrip_ms", "ms"},
	{"testbed.session_ms", "ms"},
	{"testbed.sessions_per_s", "1/s"},
	{"testbed.allocs_per_session", "count"},
	{"probe.dataset_ms", "ms"},
	{"features.construct_ms", "ms"},
	{"features.fcbf_ms", "ms"},
	{"c45.train_ms", "ms"},
	{"ml.cv_ms", "ms"},
	{"fleet.session_us", "us"},
	{"fleet.allocs_per_session", "count"},
	{"fleet.scored_sessions_per_s", "1/s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"ledger.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorder accumulates one run's operations, failures and metrics.
type recorder struct {
	attempted, failed int64
	failures          []string
	e2e, layers       map[string]metric
	ref               map[string]metric // e2e at the reference speed
	samples           map[string]int
	notes             map[string]any
	cal               *calibrator
}

func newRecorder(workers int) *recorder {
	return &recorder{e2e: map[string]metric{}, ref: map[string]metric{}, layers: map[string]metric{},
		samples: map[string]int{}, notes: map[string]any{}, cal: &calibrator{workers: workers}}
}

// ops counts n attempted operations.
func (r *recorder) ops(n int) { r.attempted += int64(n) }

// fail counts n failed operations and keeps the first few reasons.
func (r *recorder) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation that fails unless ok.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.ops(1)
	if !ok {
		r.fail(1, format, args...)
	}
}

// metric records an end-to-end metric that host speed does not change,
// and the sample count behind it.
func (r *recorder) metric(name string, v float64, samples int) {
	m := metric{Value: v, Unit: unitOf(endToEnd, name)}
	r.e2e[name], r.ref[name], r.samples[name] = m, m, samples
}

// timedMetric records the median of a run's measured times or rates as
// an end-to-end metric, both as measured and at the reference speed
// (see calib.go).
func (r *recorder) timedMetric(name string, xs []timed, kind speedKind) {
	unit := unitOf(endToEnd, name)
	r.e2e[name] = metric{Value: median(values(xs)), Unit: unit}
	r.ref[name] = metric{Value: median(r.cal.atReference(xs, kind, unit == "1/s")), Unit: unit}
	r.samples[name] = len(xs)
}

// tails reports a latency sample's tail in the report line, the p95 and
// the p99 in milliseconds, with the sample count. They are not
// end-to-end metrics: on a 2-vCPU VM with CPU steal their run-to-run
// spread exceeds any bound a gate can use.
func (r *recorder) tails(msLat []float64) {
	sort.Float64s(msLat)
	at := func(q float64) float64 {
		return msLat[max(0, min(int(math.Ceil(q*float64(len(msLat))))-1, len(msLat)-1))]
	}
	r.notes["p95_ms"] = at(0.95)
	r.notes["p99_ms"] = at(0.99)
	r.notes["latency_samples"] = len(msLat)
}

// layer records a per-layer metric.
func (r *recorder) layer(name, unit string, v float64) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unlisted metric " + name)
}

func (r *recorder) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish assembles the contract's result: every listed metric of the
// run's kind, end-to-end ones at the reference speed, per-layer ones as
// measured and, when absent from the run, reported as zero.
func (r *recorder) finish(o options) (result, error) {
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	if !o.trace {
		for _, m := range endToEnd {
			v, ok := r.ref[m.name]
			if !ok {
				return res, fmt.Errorf("workload %s did not measure %s", o.workload, m.name)
			}
			res.Metrics[m.name] = v
		}
		return res, nil
	}
	r.layer("error_rate", "ratio", r.errorRate())
	for _, m := range perLayer {
		v, ok := r.layers[m.name]
		if !ok {
			v = metric{Unit: m.unit}
		}
		if v.Unit != m.unit {
			return res, fmt.Errorf("metric %s measured in %s, listed in %s", m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
	}
	return res, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *recorder) error{
	"route-bulk":   runRouteBulk,
	"serve-lookup": runServeLookup,
	"lab-to-fleet": runLabToFleet,
}

// run executes one workload and returns its recorder and result.
func run(o options) (*recorder, result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	rec := newRecorder(runtime.NumCPU())
	if err := drive(o, rec); err != nil {
		return rec, result{}, err
	}
	res, err := rec.finish(o)
	return rec, res, err
}

// environment stamps a result with what it was measured on.
func environment(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
	}
}

// cpuTicks reads the machine's stolen and total CPU time in jiffies
// from /proc/stat, or zeros when it is unreadable. Steal is time the
// hypervisor gave this VM's CPUs to others; it slows every wall-clock
// figure of the run.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "route-bulk, serve-lookup or lab-to-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input of the run is drawn from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement budget of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.size = fullSize
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	steal0, total0 := cpuTicks()
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := environment(o.seed)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		env["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	report := map[string]any{
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      trace,
		"env":        env,
		"error_rate": rec.errorRate(),
		"samples":    rec.samples,
		"failures":   rec.failures,
		"notes":      rec.notes,
	}
	if !o.trace {
		report["slowdown_median"] = map[string]float64{"aggregate": medianSlowdown(rec.cal.bursts, aggregate),
			"per_operation": medianSlowdown(rec.cal.bursts, perOperation), "bursts": float64(len(rec.cal.bursts))}
		report["end_to_end_measured"] = rec.e2e
	}
	if o.trace {
		report["per_layer"] = rec.layers
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"report": report}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}
