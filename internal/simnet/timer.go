package simnet

import (
	"fmt"
	"time"

	"vqprobe/internal/eventq"
)

// Timer runs a function once at a deadline that may be moved (Reset) or
// cancelled (Stop) any number of times before it fires. A TCP
// retransmission timer is re-armed on nearly every ACK, so scheduling a
// fresh closure per re-arm would leave one dead event per ACK in the
// queue; a Timer keeps at most one entry per deadline move toward the
// present.
//
// Each Reset takes exactly one sequence number, as After does, so a
// timer fires at the very (at, seq) key the closure pattern would have
// given it. The queue is updated lazily. While the timer is armed,
// exactly one of its queued entries is the carrier, and the carrier's
// key never exceeds the deadline's key. A Reset to a later deadline
// leaves the queue alone; when the carrier pops early it is pushed back
// at the deadline's stored key. Only a Reset to an earlier deadline
// pushes a new carrier; the old one then pops later and is ignored.
type Timer struct {
	sim *Sim
	fn  func()

	armed bool
	at    time.Duration // deadline, valid while armed
	seq   uint64        // the deadline's sequence number

	slot    int32 // slot shared by this timer's queued entries; -1 if none
	queued  int   // this timer's entries in the queue, carrier included
	carrier bool  // whether the entry with key (carAt, carSeq) is queued
	carAt   time.Duration
	carSeq  uint64
}

// NewTimer returns a stopped timer that calls fn when it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{sim: s, fn: fn, slot: -1}
}

// Reset arms the timer to fire d from now, replacing any earlier
// deadline. Negative d is treated as zero.
func (t *Timer) Reset(d time.Duration) {
	s := t.sim
	if d < 0 {
		d = 0
	}
	at, seq := s.key(s.now + d)
	if !t.armed {
		t.armed = true
		s.live++
	}
	t.at, t.seq = at, seq
	// The carrier's seq is older than seq, so carAt <= at puts its key
	// before the deadline's: it will pop in time to move it.
	if t.carrier && t.carAt <= at {
		return
	}
	t.enqueue(at, seq)
}

// Stop disarms the timer. Stopping a stopped timer does nothing.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.sim.live--
	}
}

// enqueue pushes a new carrier entry under the key (at, seq).
func (t *Timer) enqueue(at time.Duration, seq uint64) {
	s := t.sim
	if t.slot < 0 {
		t.slot = s.alloc(slot{kind: kindTimer, timer: t})
	}
	t.queued++
	t.carrier, t.carAt, t.carSeq = true, at, seq
	s.queue.Push(eventq.Entry{At: int64(at), Seq: seq, Slot: t.slot})
}

// pop handles one of the timer's entries leaving the queue and reports
// whether the timer fired.
func (t *Timer) pop(e eventq.Entry) bool {
	t.queued--
	if !t.carrier || e.Seq != t.carSeq {
		t.releaseIfIdle() // a carrier superseded by an earlier deadline
		return false
	}
	t.carrier = false
	if !t.armed {
		t.releaseIfIdle()
		return false
	}
	if e.Seq != t.seq {
		t.enqueue(t.at, t.seq) // the deadline moved later: carry it there
		return false
	}
	t.armed = false
	t.sim.live--
	t.releaseIfIdle()
	t.fn()
	return true
}

// releaseIfIdle returns the timer's slot once no entry refers to it, so
// the simulator keeps no reference to a timer nobody will re-arm.
func (t *Timer) releaseIfIdle() {
	if t.queued == 0 && t.slot >= 0 {
		t.sim.release(t.slot)
		t.slot = -1
	}
}

// Ticker invokes fn every interval of virtual time until Stop is called.
// It is the building block for per-second samplers (RSSI, CPU, NIC
// counters) used by the probes.
type Ticker struct {
	timer    *Timer
	interval time.Duration
	fn       func(now time.Duration)
	stopped  bool
}

// NewTicker starts a ticker with the given interval. The first tick fires
// one interval from now. interval must be positive.
func NewTicker(sim *Sim, interval time.Duration, fn func(now time.Duration)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("simnet: non-positive ticker interval %v", interval))
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer = sim.NewTimer(t.tick)
	t.timer.Reset(interval)
	return t
}

func (t *Ticker) tick() {
	t.fn(t.timer.sim.Now())
	if !t.stopped {
		t.timer.Reset(t.interval)
	}
}

// Stop cancels future ticks, including one due at the current instant
// that has not run yet.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
