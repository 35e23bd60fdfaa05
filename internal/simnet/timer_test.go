package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refSim is a reference of the scheduling pattern Timer replaced: every
// (re-)arm schedules a fresh closure, and a per-timer generation counter
// turns superseded closures into no-ops when they pop. Its queue is a
// plain slice scanned for the minimum (at, seq) key, which pops in the
// same order as any heap because live keys are distinct.
type refSim struct {
	now time.Duration
	seq uint64
	q   []refEvent
}

type refEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	timer bool // queued by a refTimer (possibly a superseded generation)
}

func (r *refSim) at(t time.Duration, fn func()) { r.push(t, fn, false) }

func (r *refSim) push(t time.Duration, fn func(), timer bool) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.q = append(r.q, refEvent{at: t, seq: r.seq, fn: fn, timer: timer})
}

// next returns the index of the earliest event, or -1.
func (r *refSim) next() int {
	best := -1
	for i, e := range r.q {
		if best < 0 || e.at < r.q[best].at || (e.at == r.q[best].at && e.seq < r.q[best].seq) {
			best = i
		}
	}
	return best
}

// run fires every event due at or before until, like Sim.Run.
func (r *refSim) run(until time.Duration) {
	for {
		i := r.next()
		if i < 0 || r.q[i].at > until {
			break
		}
		e := r.q[i]
		r.q = append(r.q[:i], r.q[i+1:]...)
		r.now = e.at
		e.fn()
	}
	if r.now < until {
		r.now = until
	}
}

type refTimer struct {
	r     *refSim
	gen   uint64
	armed bool
	fn    func()
}

func (t *refTimer) reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.gen++
	gen := t.gen
	t.armed = true
	t.r.push(t.r.now+d, func() {
		if t.gen == gen {
			t.armed = false
			t.fn()
		}
	}, true)
}

func (t *refTimer) stop() {
	t.gen++
	t.armed = false
}

// schedOp is one scripted scheduling call.
type schedOp struct {
	kind  int // 0: Reset, 1: Stop, 2: At
	timer int
	d     time.Duration
}

// scheduler is the common surface the property test drives.
type scheduler interface {
	reset(i int, d time.Duration)
	stop(i int)
	after(d time.Duration, fn func())
	now() time.Duration
	run(until time.Duration)
	pending() int
}

type simSched struct {
	s      *Sim
	timers []*Timer
}

func (x *simSched) reset(i int, d time.Duration)     { x.timers[i].Reset(d) }
func (x *simSched) stop(i int)                       { x.timers[i].Stop() }
func (x *simSched) after(d time.Duration, fn func()) { x.s.After(d, fn) }
func (x *simSched) now() time.Duration               { return x.s.Now() }
func (x *simSched) run(until time.Duration)          { x.s.Run(until) }
func (x *simSched) pending() int                     { return x.s.Pending() }

type refSched struct {
	r      *refSim
	timers []*refTimer
}

func (x *refSched) reset(i int, d time.Duration)     { x.timers[i].reset(d) }
func (x *refSched) stop(i int)                       { x.timers[i].stop() }
func (x *refSched) after(d time.Duration, fn func()) { x.r.at(x.r.now+d, fn) }
func (x *refSched) now() time.Duration               { return x.r.now }
func (x *refSched) run(until time.Duration)          { x.r.run(until) }

// pending counts what the reference will still fire: armed timers
// and queued closures other than timer generations.
func (x *refSched) pending() int {
	n := 0
	for _, t := range x.timers {
		if t.armed {
			n++
		}
	}
	for _, e := range x.r.q {
		if !e.timer {
			n++
		}
	}
	return n
}

// replayer replays one script against a scheduler: the initial calls run
// at time zero and every firing (timer or closure) performs the next
// two scripted calls, so reentrant Reset/Stop/At from inside callbacks
// is covered. The log records what fired and when.
type replayer struct {
	sch    scheduler
	script []schedOp
	pos    int
	log    []string
}

func (rp *replayer) step() {
	if rp.pos >= len(rp.script) {
		return
	}
	op := rp.script[rp.pos]
	rp.pos++
	switch op.kind {
	case 0:
		rp.sch.reset(op.timer, op.d)
	case 1:
		rp.sch.stop(op.timer)
	default:
		id := rp.pos
		rp.sch.after(op.d, func() { rp.fired(fmt.Sprintf("closure#%d", id)) })
	}
}

func (rp *replayer) fired(what string) {
	rp.log = append(rp.log, fmt.Sprintf("%s@%v", what, rp.sch.now()))
	rp.step()
	rp.step()
}

func randomScript(rng *rand.Rand, timers int) []schedOp {
	ops := make([]schedOp, 40+rng.Intn(80))
	for i := range ops {
		ops[i] = schedOp{
			kind:  rng.Intn(3),
			timer: rng.Intn(timers),
			// Whole milliseconds over a short range force many equal
			// deadlines, where only seq decides the order.
			d: time.Duration(rng.Intn(12)-1) * time.Millisecond,
		}
		if ops[i].kind == 0 && rng.Intn(4) == 0 {
			ops[i].kind = 1 // weight Reset and At above Stop
		}
	}
	return ops
}

// TestTimerMatchesGenerationCounterPattern: for random schedules of
// Reset, Stop and At calls, made both up front and from inside firing
// callbacks, Timer fires at the same times and in the same order as the
// closure-plus-generation-counter pattern it replaced, and Pending
// equals the number of reference closures that would still do
// something.
func TestTimerMatchesGenerationCounterPattern(t *testing.T) {
	const timers = 4
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := randomScript(rng, timers)
		var bounds []time.Duration
		for b := time.Duration(0); b < 300*time.Millisecond; b += time.Duration(rng.Intn(15)) * time.Millisecond {
			bounds = append(bounds, b)
		}
		bounds = append(bounds, time.Hour)

		impl := &simSched{s: New(seed)}
		implRp := &replayer{sch: impl, script: script}
		for i := 0; i < timers; i++ {
			name := fmt.Sprintf("timer%d", i)
			impl.timers = append(impl.timers, impl.s.NewTimer(func() { implRp.fired(name) }))
		}

		ref := &refSched{r: &refSim{}}
		refRp := &replayer{sch: ref, script: script}
		for i := 0; i < timers; i++ {
			name := fmt.Sprintf("timer%d", i)
			ref.timers = append(ref.timers, &refTimer{r: ref.r, fn: func() { refRp.fired(name) }})
		}

		for i := 0; i < 5; i++ {
			implRp.step()
			refRp.step()
		}
		for _, b := range bounds {
			impl.run(b)
			ref.run(b)
			if fmt.Sprint(implRp.log) != fmt.Sprint(refRp.log) {
				t.Fatalf("seed %d: by %v fired\n  %v\nreference\n  %v", seed, b, implRp.log, refRp.log)
			}
			if impl.pending() != ref.pending() {
				t.Fatalf("seed %d: at %v Pending = %d, reference %d", seed, b, impl.pending(), ref.pending())
			}
		}
	}
}
