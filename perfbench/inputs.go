package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vqprobe"
	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/trace"
)

// fcbfDelta is the SU threshold the paper pipeline selects features with
// (the value internal/experiments uses for every figure).
const fcbfDelta = 0.02

// cvFolds is the paper's cross-validation protocol.
const cvFolds = 10

// fleetContract lists the mobile-tap features the fluid fleet model
// synthesizes with a testbed-CSV counterpart (docs/FLEET.md). A model
// meant to score fleet sessions is trained on these columns only.
var fleetContract = []string{
	"tcp_s2c_throughput_bps", "tcp_s2c_rtt_ms_avg", "tcp_s2c_retrans_pkts",
	"tcp_first_data_delay_s", "hw_cpu_pct_avg", "wlan0_nic_rssi_dbm_avg",
	"wlan0_nic_retries",
}

// Seeds of the independent input streams one run draws from its --seed.
// Training and held-out sessions never share a seed.
func trainSeed(seed int64) int64   { return seed*1_000_003 + 11 }
func heldOutSeed(seed int64) int64 { return seed*1_000_003 + 500_009 }
func mixSeed(seed int64) int64     { return seed*1_000_003 + 777_767 }

// simulate runs n sessions of one setting on the given workers.
func simulate(gen func(vqprobe.SimulationConfig) []vqprobe.Session, n int, seed int64, workers int) []vqprobe.Session {
	return gen(vqprobe.SimulationConfig{Sessions: n, Seed: seed, Workers: workers})
}

// poolRow is one distinct feature vector a request row may carry, with
// the reference answers the oracle computed for it at set-up.
type poolRow struct {
	features []byte // JSON object of the raw feature vector
	fv       metrics.Vector
	class    string // CompiledModel.Diagnose
	rule     string // CompiledModel.DiagnoseExplain
}

// rowPool is the held-out traffic: one row per held-out session, with
// the vantage points its generator instrumented. The controlled testbed
// instruments all three; the real-world and wild generators leave out
// the server probe for YouTube sessions (no probe inside its CDN) and
// the wild one the router probe too (Section 6.2), so the missing-
// vantage-point share is the generators' own, not a chosen constant.
type rowPool struct {
	rows []poolRow
	// mobileOnly and missingVP count the rows that carry only the mobile
	// vantage point, and that lack at least one of the three.
	mobileOnly, missingVP int
}

// buildPool encodes the held-out sessions and computes each row's
// reference answer through the public compiled-model calls.
func buildPool(held []vqprobe.Session, cm *vqprobe.CompiledModel) (*rowPool, error) {
	p := &rowPool{}
	for _, s := range held {
		fv := s.Combined(vqprobe.AllVantagePoints...)
		if len(fv) == 0 {
			continue // the session lost its radio before any record
		}
		if err := vqprobe.ValidateFeatures(fv); err != nil {
			return nil, fmt.Errorf("held-out session: %w", err)
		}
		js, err := json.Marshal(map[string]float64(fv))
		if err != nil {
			return nil, err
		}
		r := poolRow{features: js, fv: fv}
		r.class = cm.Diagnose(fv).Class
		exp := cm.DiagnoseExplain(fv)
		if exp.Err != "" || exp.Class != r.class {
			return nil, fmt.Errorf("reference explain disagrees with diagnose: %q vs %q (%s)", exp.Class, r.class, exp.Err)
		}
		r.rule = exp.Rule
		vps := 0
		for _, vp := range vqprobe.AllVantagePoints {
			if len(s.Records[vp]) > 0 {
				vps++
			}
		}
		if vps < len(vqprobe.AllVantagePoints) {
			p.missingVP++
			if vps == 1 && len(s.Records[vqprobe.VPMobile]) > 0 {
				p.mobileOnly++
			}
		}
		p.rows = append(p.rows, r)
	}
	if len(p.rows) == 0 {
		return nil, fmt.Errorf("held-out pool is empty")
	}
	return p, nil
}

// shares reports the pool's traffic mix; requests draw rows uniformly,
// so these are the expected shares of the request rows too.
func (p *rowPool) shares() map[string]float64 {
	n := float64(len(p.rows))
	return map[string]float64{"rows": n, "mobile_only_share": float64(p.mobileOnly) / n,
		"missing_vp_share": float64(p.missingVP) / n}
}

// draw picks the pool row for one request row.
func (p *rowPool) draw(rng *rand.Rand) *poolRow { return &p.rows[rng.Intn(len(p.rows))] }

// mobileOnly reduces sessions to their mobile records, the paper's
// missing-vantage-point case at its most extreme.
func mobileOnly(sessions []vqprobe.Session) []vqprobe.Session {
	out := make([]vqprobe.Session, len(sessions))
	for i, s := range sessions {
		s.Records = map[string]metrics.Vector{vqprobe.VPMobile: s.Records[vqprobe.VPMobile]}
		out[i] = s
	}
	return out
}

// all lists every pool row.
func (p *rowPool) all() []*poolRow {
	out := make([]*poolRow, len(p.rows))
	for i := range p.rows {
		out[i] = &p.rows[i]
	}
	return out
}

// appendLine appends one NDJSON request line (with its newline).
func appendLine(buf []byte, id string, r *poolRow, explain bool) []byte {
	buf = append(buf, `{"id":"`...)
	buf = append(buf, id...)
	buf = append(buf, `","features":`...)
	buf = append(buf, r.features...)
	if explain {
		buf = append(buf, `,"explain":true`...)
	}
	return append(buf, "}\n"...)
}

// answer is the part of a /diagnose result line the oracle checks.
type answer struct {
	ID    string `json:"id"`
	Class string `json:"class"`
	Rule  string `json:"rule"`
	Err   string `json:"error"`
}

// checkAnswers compares a response body's result lines against the
// expected rows, in order, and returns how many rows were answered
// wrongly (a wrong class or rule, an error row, a row answered out of
// order, or a missing line).
func checkAnswers(body []byte, ids []string, want []*poolRow, explain bool) int {
	bad := 0
	i := 0
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if i >= len(ids) {
			bad++ // an extra line is an answer to no row
			continue
		}
		var a answer
		if err := json.Unmarshal(line, &a); err != nil ||
			a.Err != "" || a.ID != ids[i] || a.Class != want[i].class ||
			(explain && a.Rule != want[i].rule) {
			bad++
		}
		i++
	}
	return bad + len(ids) - min(i, len(ids))
}

// trained is what one train_s repetition produces.
type trained struct {
	model *vqprobe.Model
	cv    *ml.Confusion
}

// trainAndValidate is what train_s times: the public Train (feature
// construction, FCBF selection, C4.5), then the paper's 10-fold
// cross-validation over the training dataset constructed and projected
// to the features Train selected.
func trainAndValidate(sessions []vqprobe.Session, vps []string, cvSeed int64, workers int) (*trained, error) {
	model, err := vqprobe.Train(sessions, vqprobe.IdentifyRootCause, vps)
	if err != nil {
		return nil, err
	}
	d, err := vqprobe.Dataset(sessions, vqprobe.IdentifyRootCause, vps)
	if err != nil {
		return nil, err
	}
	constructed, _ := features.Construct(d)
	conf := ml.CrossValidateWorkers(c45.New(c45.Config{Workers: workers}), constructed.Project(model.SelectedFeatures()),
		cvFolds, rand.New(rand.NewSource(cvSeed)), workers)
	return &trained{model: model, cv: conf}, nil
}

// stageTimer is called around each training stage.
type stageTimer func(name string, start time.Time)

// trainStages runs the stages of trainAndValidate one by one, as the
// pipeline Train calls runs them — dataset, feature construction, FCBF
// selection, C4.5 — then the 10-fold CV, calling mark after each. The
// traced run takes its per-stage spans from it; it returns the selected
// features, which must match what Train selected.
func trainStages(sessions []vqprobe.Session, vps []string, cvSeed int64, workers int, mark stageTimer) ([]string, error) {
	t0 := now()
	d, err := vqprobe.Dataset(sessions, vqprobe.IdentifyRootCause, vps)
	if err != nil {
		return nil, err
	}
	mark("probe.dataset", t0)
	t0 = now()
	constructed, _ := features.Construct(d)
	mark("features.construct", t0)
	t0 = now()
	names := features.Names(features.FCBFWorkers(constructed, fcbfDelta, workers))
	mark("features.fcbf", t0)
	projected := constructed.Project(names)
	t0 = now()
	c45.New(c45.Config{Workers: workers}).TrainTree(projected)
	mark("c45.train", t0)
	t0 = now()
	ml.CrossValidateWorkers(c45.New(c45.Config{Workers: workers}), projected, cvFolds,
		rand.New(rand.NewSource(cvSeed)), workers)
	mark("ml.cv", t0)
	return names, nil
}

// restrictToContract keeps only the mobile records' fleet-contract
// columns, the docs/FLEET.md recipe for a fleet-compatible model.
func restrictToContract(sessions []vqprobe.Session) []vqprobe.Session {
	out := make([]vqprobe.Session, len(sessions))
	for i, s := range sessions {
		rec := metrics.Vector{}
		for _, k := range fleetContract {
			if v, ok := s.Records[vqprobe.VPMobile][k]; ok {
				rec[k] = v
			}
		}
		s.Records = map[string]metrics.Vector{vqprobe.VPMobile: rec}
		out[i] = s
	}
	return out
}

// workDir is the run's scratch directory for model snapshots, inside the
// checkout the benchmark runs from; cleanup removes it.
type workDir struct{ path string }

func newWorkDir() (*workDir, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	p, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &workDir{path: p}, nil
}

func (w *workDir) cleanup() { _ = os.RemoveAll(w.path) }

// saveSnapshot writes the model's binary serving snapshot to the work
// directory and returns its path.
func (w *workDir) saveSnapshot(m *vqprobe.Model, name string) (string, error) {
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		return "", err
	}
	path := filepath.Join(w.path, name)
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// simulateEach runs n controlled sessions one per call on workers
// goroutines, session i seeded seed+i, and returns them with each
// session's wall time in milliseconds. Timing single sessions is what
// gives the lab its latency distribution; the pooled sessions form the
// lab dataset.
func simulateEach(n int, seed int64, workers int, tr *tracing, parent trace.SpanID) ([]vqprobe.Session, []timed) {
	sessions := make([]vqprobe.Session, n)
	walls := make([]timed, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sp := tr.start("testbed", "session", parent)
				t0 := now()
				out := vqprobe.SimulateControlled(vqprobe.SimulationConfig{Sessions: 1, Seed: seed + int64(i), Workers: 1})
				d := since(t0)
				walls[i] = one(ms(d), t0, d)
				sp.End()
				sessions[i] = out[0]
			}
		}()
	}
	wg.Wait()
	return sessions, walls
}
