// Package simnet implements a deterministic discrete-event network
// simulator: a virtual clock, an event queue, hosts with network
// interfaces, and duplex links with configurable bandwidth, propagation
// delay, jitter, loss and FIFO queues.
//
// The simulator is the testbed substrate for the vqprobe reproduction: it
// stands in for the physical server/router/phone topology of the paper.
// Everything above it (TCP, video delivery, probes, fault injection) runs
// on top of the primitives defined here.
//
// All randomness is drawn from a *rand.Rand owned by the Sim, so a run is
// fully reproducible from its seed. Time is virtual: the simulator never
// consults the wall clock.
package simnet

import (
	"math/rand"
	"time"

	"vqprobe/internal/eventq"
	"vqprobe/internal/trace"
)

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// Every scheduled event gets a key (at, seq): its firing time and a
// sequence number taken from one counter at the moment it is scheduled.
// Events fire in key order, so simultaneous events run FIFO. The queue
// holds pointer-free eventq entries; what an entry does when it pops is
// looked up in the slot table, by kind:
//
//   - a closure passed to At or After (cold paths);
//   - a link direction finishing the packet at the head of its FIFO;
//   - a link direction delivering the head of its in-flight FIFO;
//   - a Timer reaching a deadline.
//
// The hot kinds allocate nothing per event.
type Sim struct {
	now    time.Duration
	queue  eventq.Heap
	slots  []slot
	free   []int32 // unused slot indices
	seq    uint64
	live   int // scheduled events that will still fire; see Pending
	rng    *rand.Rand
	nextID uint64
	halted bool
	tracer *trace.Tracer
}

type slotKind uint8

const (
	kindFunc    slotKind = iota // fn runs once; the slot is then freed
	kindService                 // dir's head-of-line packet leaves the link
	kindDeliver                 // dir's oldest in-flight packet arrives
	kindTimer                   // timer's entry pops (live or superseded)
)

// slot is what a queue entry refers to. Link directions own two
// permanent slots each; timers own one while they have entries queued.
type slot struct {
	kind  slotKind
	fn    func()
	dir   *linkDir
	timer *Timer
}

// New returns a simulator whose random number generator is seeded with
// seed. Two simulators created with the same seed and driven by the same
// schedule of events produce identical traces.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's random source. All model components must
// draw randomness from here to preserve reproducibility.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetTracer attaches an event recorder to the simulation. Everything
// running on this Sim (links, TCP connections, the video player) emits
// spans and instant events into it. A nil tracer (the default) disables
// recording at zero cost; the tracer should be clocked by s.Now so
// events carry virtual timestamps.
func (s *Sim) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the attached recorder, or nil when tracing is off.
// The nil result is safe to use directly: all trace.Tracer methods
// no-op on a nil receiver.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is clamped to the present: the event runs at Now.
func (s *Sim) At(t time.Duration, fn func()) {
	i := s.alloc(slot{kind: kindFunc, fn: fn})
	s.live++
	s.push(t, i)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// key hands out the (at, seq) key of a newly scheduled event, clamping
// a time in the past to the present.
func (s *Sim) key(t time.Duration) (time.Duration, uint64) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	return t, s.seq
}

// push schedules slot i under a fresh key at t.
func (s *Sim) push(t time.Duration, i int32) {
	at, seq := s.key(t)
	s.queue.Push(eventq.Entry{At: int64(at), Seq: seq, Slot: i})
}

// alloc stores sl in a free slot and returns its index.
func (s *Sim) alloc(sl slot) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[i] = sl
		return i
	}
	s.slots = append(s.slots, sl)
	return int32(len(s.slots) - 1)
}

// release clears slot i (dropping its references) and recycles it.
func (s *Sim) release(i int32) {
	s.slots[i] = slot{}
	s.free = append(s.free, i)
}

// dispatch pops the earliest queue entry and acts on it. It reports
// whether a live event fired: a superseded timer entry pops without
// firing anything.
func (s *Sim) dispatch() bool {
	e := s.queue.Pop()
	s.now = time.Duration(e.At)
	sl := &s.slots[e.Slot]
	switch sl.kind {
	case kindFunc:
		fn := sl.fn
		s.release(e.Slot)
		s.live--
		fn()
		return true
	case kindService:
		sl.dir.serviceDone()
		return true
	case kindDeliver:
		sl.dir.deliverHead()
		return true
	default:
		return sl.timer.pop(e)
	}
}

// Step executes the earliest pending event and returns true, or returns
// false when no events remain.
func (s *Sim) Step() bool {
	for s.queue.Len() > 0 {
		if s.dispatch() {
			return true
		}
	}
	return false
}

// Run processes events until the queue drains or virtual time would pass
// until. Events scheduled exactly at until still run. It returns the
// virtual time at which processing stopped.
func (s *Sim) Run(until time.Duration) time.Duration {
	s.halted = false
	for !s.halted && s.queue.Len() > 0 {
		if time.Duration(s.queue.Min().At) > until {
			s.now = until
			return s.now
		}
		s.dispatch()
	}
	if s.now < until && !s.halted {
		s.now = until
	}
	return s.now
}

// RunAll processes events until the queue is empty or Halt is called.
func (s *Sim) RunAll() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// Halt stops Run/RunAll after the currently executing event returns.
// Pending events stay queued and a subsequent Run resumes them.
func (s *Sim) Halt() { s.halted = true }

// Pending reports how many events will still fire if the simulation
// runs on: closures, packets in service and in flight on every link,
// and armed timers. Superseded timer deadlines are not counted.
func (s *Sim) Pending() int { return s.live }

// nextPacketID hands out unique packet identifiers for tracing.
func (s *Sim) nextPacketID() uint64 {
	s.nextID++
	return s.nextID
}
