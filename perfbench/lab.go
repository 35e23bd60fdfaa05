package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"vqprobe"
	"vqprobe/internal/fleet"
	"vqprobe/internal/ml"
	"vqprobe/internal/trace"
)

// minProblemRecall is the lowest share of problem sessions whose exact
// root cause 10-fold CV must identify.
const minProblemRecall = 0.1

// One lab session in heldOutShare is kept out of training.
const heldOutShare = 5

// labChunk is how many more testbed sessions an untraced run times
// after each fleet run.
const labChunk = 32

// checkSessions counts each simulated session as an operation that
// fails when the session produced no records; first numbers the first.
func checkSessions(rec *recorder, sessions []vqprobe.Session, first int) {
	for i, s := range sessions {
		rec.check(len(s.Records) > 0, "lab session %d produced no records", first+i)
	}
}

func runLabToFleet(o options, rec *recorder) error {
	workers := runtime.NumCPU()
	budget := time.Duration(o.seconds * float64(time.Second))
	var tr *tracing
	if o.trace {
		tr = newTracing()
		tr.on.Store(true)
	}
	dir, err := newWorkDir()
	if err != nil {
		return err
	}
	defer dir.cleanup()
	mem := startMem()
	rss := newRSSMeter()
	rss.begin()
	root := tr.start("lab", "lab-to-fleet", 0)
	t0 := now()

	// An untraced run has a calibration burst (see calib.go) between
	// every two of its measurements.
	burst := func() {
		if !o.trace {
			rec.cal.sample(budget / 300)
		}
	}

	// Lab: seeded controlled-testbed sessions, each timed; an untraced
	// run simulates them in chunks, with a burst between two chunks.
	n := o.size.labSessions
	simSpan := tr.start("lab", "testbed", root.ID())
	simMem := startMem()
	var sessions []vqprobe.Session
	var walls []timed
	var simElapsed time.Duration
	for len(sessions) < n {
		burst()
		k := n - len(sessions)
		if !o.trace {
			k = min(k, labChunk)
		}
		t1 := now()
		more, w := simulateEach(k, trainSeed(o.seed)+int64(len(sessions)), workers, tr, simSpan.ID())
		simElapsed += since(t1)
		sessions, walls = append(sessions, more...), append(walls, w...)
	}
	simMallocs, _, _ := simMem.stop()
	simSpan.End()
	burst()
	checkSessions(rec, sessions, 0)
	nHeld := n / heldOutShare
	train, held := sessions[:n-nHeld], sessions[n-nHeld:]

	// Training: the public Train with 10-fold CV, timed as train_s. From
	// here on, what the train_s samples do not cover is the fleet phase.
	tt := &trainTimer{sessions: train, seed: o.seed, workers: workers, rss: rss, phase: "testbed"}
	sampleFor := budget / 30
	if o.trace {
		sampleFor = 0
	}
	trainSpan := tr.start("lab", "train", root.ID())
	if err := tt.sample(sampleFor); err != nil {
		return err
	}
	tt.phase = "fleet"
	model, cv := tt.first.model, tt.first.cv
	if o.trace {
		// Traced and untraced repetitions of the stages alternate: their
		// medians give the tracing overhead, the last traced one the
		// stage times.
		var plain, traced []float64
		var selected []string
		for i := 0; i < 3 && err == nil; i++ {
			t1 := now()
			_, err = trainStages(train, vqprobe.AllVantagePoints, o.seed, workers, func(string, time.Time) {})
			plain = append(plain, since(t1).Seconds())
			t1 = now()
			selected, err = trainStages(train, vqprobe.AllVantagePoints, o.seed, workers, func(name string, start time.Time) {
				d := since(start)
				tr.tr.RecordSpan("lab", name, "", trainSpan.ID(), tr.tr.Now()-d, d)
				rec.layer(name+"_ms", "ms", ms(d))
			})
			traced = append(traced, since(t1).Seconds())
		}
		if err != nil {
			return err
		}
		rec.layer("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)
		rec.check(slices.Equal(model.SelectedFeatures(), selected),
			"public Train selected %v, the traced stages %v", model.SelectedFeatures(), selected)
	}
	trainSpan.End()

	// The Figure-4 shape at a few hundred training sessions: the tree
	// must identify the exact root cause of problem sessions, which the
	// majority-class answer ("good") never does. (EXPERIMENTS.md's 92%
	// accuracy needs thousands of sessions; here accuracy sits only a
	// few points above the majority share, so it cannot carry a floor.)
	recall := problemRecall(cv)
	rec.notes["cv_accuracy"] = cv.Accuracy()
	rec.notes["cv_majority_share"] = majorityShare(cv)
	rec.notes["cv_problem_recall"] = recall
	rec.check(recall >= minProblemRecall, "10-fold CV identified the exact cause of %.3f of problem sessions, below %.2f",
		recall, minProblemRecall)

	// Compile and round-trip the snapshot; the compiled model must agree
	// with the pointer tree on every held-out row, with all its vantage
	// points and with the mobile one alone.
	snapSpan := tr.start("lab", "snapshot", root.ID())
	path, err := dir.saveSnapshot(model, "lab.snap")
	if err != nil {
		return err
	}
	cm, err := vqprobe.LoadServingModel(path)
	if err != nil {
		return err
	}
	pool, err := buildPool(append(slices.Clone(held), mobileOnly(held)...), cm)
	if err != nil {
		return err
	}
	for _, r := range pool.all() {
		want := model.PredictVector(r.fv)
		rec.check(r.class == want, "compiled model answered %q, pointer tree %q", r.class, want)
	}
	snapSpan.End()

	// Fleet: the contract-restricted model scores a seeded fleet run
	// in-process through the serve engine.
	fleetSetup := tr.start("lab", "fleet-setup", root.ID())
	fm, err := vqprobe.Train(restrictToContract(train), vqprobe.IdentifyRootCause, []string{vqprobe.VPMobile})
	if err != nil {
		return err
	}
	fleetSnap, err := dir.saveSnapshot(fm, "fleet.snap")
	if err != nil {
		return err
	}
	// A set-up is the fleet scorer's snapshot load and engine start.
	scorer := func() (*vqprobe.Engine, time.Duration, error) {
		t1 := now()
		fcm, err := vqprobe.LoadServingModel(fleetSnap)
		if err != nil {
			return nil, 0, err
		}
		eng := vqprobe.NewEngine(fcm, vqprobe.EngineConfig{})
		return eng, since(t1), nil
	}
	st := &setupTimer{}
	setup := func() (time.Duration, error) {
		eng, d, err := scorer()
		if err == nil {
			// An idle engine drains at once; Close reports no error.
			_ = eng.Close()
		}
		return d, err
	}
	if err := st.repeat(setupBudget, o.size.setupReps, setup); err != nil {
		return err
	}
	eng, _, err := scorer()
	if err != nil {
		return err
	}
	defer eng.Close()
	fleetSetup.End()

	fcfg := fleet.Config{Sessions: o.size.fleetSessions, Seed: o.seed, Workers: workers,
		Engine: eng, ModelTask: string(vqprobe.IdentifyRootCause)}
	var gold []byte
	runFleet := func(cfg fleet.Config, parent trace.SpanID) (time.Duration, error) {
		sp := tr.start("lab", "fleet", parent)
		t1 := now()
		sum, _, err := fleet.Run(cfg)
		d := since(t1)
		sp.End()
		if err != nil {
			return 0, err
		}
		if cfg.Engine == nil {
			return d, nil
		}
		checkFleet(rec, sum, cfg.Sessions)
		js, err := sum.EncodeJSON()
		if err != nil {
			return 0, err
		}
		if gold == nil {
			gold = js
		}
		rec.check(bytes.Equal(js, gold), "fleet summary differs between runs of the same seed")
		return d, nil
	}

	if !o.trace {
		// Fleet runs alternate with more testbed sessions and with
		// train_s, set-up and calibration samples, so every figure is
		// drawn from the whole run.
		var rates []timed
		corpus := slices.Clone(train)
		for start := now(); len(rates) < 3 || since(start) < budget*3/5; {
			t1 := now()
			d, err := runFleet(fcfg, 0)
			if err != nil {
				return err
			}
			rates = append(rates, one(float64(fcfg.Sessions)/d.Seconds(), t1, d))
			burst()
			more, w := simulateEach(labChunk, trainSeed(o.seed)+int64(len(walls)), workers, nil, 0)
			checkSessions(rec, more, len(walls))
			walls = append(walls, w...)
			// The next train_s sample trains on the newest sessions, so
			// train_s is a median over many corpora, not one.
			corpus = append(corpus[len(more):], more...)
			tt.sessions = corpus
			burst()
			if err := tt.sample(budget / 150); err != nil {
				return err
			}
			burst()
			if err := st.repeat(budget/300, 1, setup); err != nil {
				return err
			}
			burst()
		}
		st.report(rec)
		tt.report(rec)
		rss.end("fleet")
		rec.metric("max_rss_mb", rss.peak("testbed", "train", "fleet"), 1)
		rss.note(rec)
		rec.timedMetric("rate_per_s", rates, aggregate)
		rec.timedMetric("p50_ms", walls, aggregate)
		rec.tails(values(walls))
		rec.notes["testbed_sessions_per_s"] = float64(n) / simElapsed.Seconds()
		return nil
	}

	// Traced run: the fleet alone, then scored through the engine.
	fleetMem := startMem()
	plain := fcfg
	plain.Engine, plain.ModelTask = nil, ""
	d, err := runFleet(plain, root.ID())
	if err != nil {
		return err
	}
	fleetMallocs, _, _ := fleetMem.stop()
	eng0 := readEngine(eng.Registry())
	ds, err := runFleet(fcfg, root.ID())
	if err != nil {
		return err
	}
	setEngine(rec, readEngine(eng.Registry()).sub(eng0))
	calls := tr.start("lab", "model-calls", root.ID())
	if err := timeModelCalls(rec, &online{model: model, cm: cm, pool: pool, dir: dir}, budget/15); err != nil {
		return err
	}
	calls.End()
	root.End()
	total := since(t0)
	_, allocMB, gcs := mem.stop()

	rec.layer("testbed.session_ms", "ms", ms(simElapsed)*float64(workers)/float64(n))
	rec.layer("testbed.sessions_per_s", "1/s", float64(n)/simElapsed.Seconds())
	rec.layer("testbed.allocs_per_session", "count", float64(simMallocs)/float64(n))
	rec.layer("fleet.session_us", "us", float64(d.Nanoseconds())/1e3/float64(plain.Sessions))
	rec.layer("fleet.allocs_per_session", "count", float64(fleetMallocs)/float64(plain.Sessions))
	rec.layer("fleet.scored_sessions_per_s", "1/s", float64(fcfg.Sessions)/ds.Seconds())
	rec.layer("runtime.gc_cycles", "count", float64(gcs))
	rec.layer("runtime.alloc_mb", "MB", allocMB)

	// Ledger: the pipeline's wall time against its phase spans.
	if err := tr.checkDropped(); err != nil {
		return err
	}
	var phases time.Duration
	ix := indexSpans(tr.tr.Events())
	for _, sp := range ix.kids[root.ID()] {
		phases += sp.Dur
	}
	rec.layer("ledger.unattributed_frac", "ratio", float64(total-phases)/float64(total))
	out, err := tr.writeChromeTrace(fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		return err
	}
	rec.notes["trace_file"] = out
	return nil
}

// majorityShare is the accuracy of always answering the most frequent
// true class.
func majorityShare(c *ml.Confusion) float64 {
	best := 0
	for _, actual := range c.Classes() {
		n := 0
		for _, predicted := range c.Classes() {
			n += c.Count(actual, predicted)
		}
		best = max(best, n)
	}
	return float64(best) / float64(c.Total())
}

// problemRecall is the share of sessions with a problem (true class
// other than "good") whose exact class the confusion matrix records as
// predicted.
func problemRecall(c *ml.Confusion) float64 {
	hit, all := 0, 0
	for _, actual := range c.Classes() {
		if actual == "good" {
			continue
		}
		for _, predicted := range c.Classes() {
			all += c.Count(actual, predicted)
		}
		hit += c.Count(actual, actual)
	}
	if all == 0 {
		return 0
	}
	return float64(hit) / float64(all)
}

// checkFleet verifies an engine-scored fleet run: every session was
// diagnosed, none with an error, and the verdicts span more than one
// root cause.
func checkFleet(rec *recorder, sum *fleet.FleetSummary, sessions int) {
	t := &sum.Total
	rec.ops(sessions)
	unscored := sessions - int(t.DiagTotal)
	rec.fail(unscored, "fleet: %d of %d sessions not diagnosed", unscored, sessions)
	rec.fail(int(t.ByCause[fleet.CauseUnknown]), "fleet: %d sessions diagnosed with an error", t.ByCause[fleet.CauseUnknown])
	causes := 0
	for _, c := range t.ByCause {
		if c > 0 {
			causes++
		}
	}
	rec.check(causes > 1, "fleet verdicts are degenerate: %d root cause(s)", causes)
}
