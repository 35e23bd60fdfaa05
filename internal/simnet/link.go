package simnet

import (
	"fmt"
	"math"
	"time"

	"vqprobe/internal/eventq"
)

// LinkConfig describes one direction of a link. A duplex link is built
// from two of these (usually identical).
type LinkConfig struct {
	// Rate is the nominal capacity in bits per second. Required.
	Rate float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// JitterStd is the standard deviation of normally distributed
	// per-packet delay jitter (tc/netem style). Samples are truncated
	// so the total one-way delay never goes negative.
	JitterStd time.Duration
	// Loss is the per-packet loss probability applied on the channel
	// (after queueing), as netem applies it.
	Loss float64
	// QueueBytes caps the FIFO queue; packets arriving at a full queue
	// are dropped (tail drop). Zero selects a default of 64 KiB.
	QueueBytes int
	// Retries is the number of link-layer retransmission attempts
	// (wireless MAC behaviour). Zero means a lost packet is simply lost,
	// as on a wired link.
	Retries int
	// RetryBackoff is the extra wait added per retry attempt.
	RetryBackoff time.Duration
}

// DefaultQueueBytes is used when LinkConfig.QueueBytes is zero.
const DefaultQueueBytes = 64 * 1024

// minEffectiveRate floors the usable rate so a fully saturated link
// still drains at a crawl instead of dividing by zero.
const minEffectiveRate = 1e3 // 1 kbit/s

// DirStats counts what happened on one direction of a link.
type DirStats struct {
	TxPackets   int64 // packets that completed transmission
	TxBytes     int64 // wire bytes transmitted (successful packets)
	QueueDrops  int64 // packets dropped at a full queue
	ChannelLoss int64 // packets lost on the channel after all retries
	Retries     int64 // link-layer retransmission attempts
	Enqueued    int64 // packets accepted into the queue
}

// linkDir is one direction of a duplex link.
type linkDir struct {
	link *Link
	cfg  LinkConfig
	dst  *NIC

	// Dynamic hooks; nil means "use the static config value".
	rateFn func(now time.Duration) float64
	lossFn func(now time.Duration) float64
	// busyFn returns the fraction [0,1) of capacity consumed by fluid
	// background traffic (cross traffic, interference airtime).
	busyFns []func(now time.Duration) float64
	// perTryLossFn adds per-transmission-attempt error probability
	// (wireless channel errors); subject to link-layer retries.
	perTryLossFn func(now time.Duration) float64

	queue  ring[*Packet] // FIFO; queue.front() is in service while busy
	qBytes int
	busy   bool
	lost   bool // the packet in service will not survive the channel
	stats  DirStats

	// inflight holds packets that have left the queue and await
	// delivery, oldest first. Only its head is in the simulator's
	// queue, under the key it was given when scheduled; see deliverHead.
	inflight ring[flight]
	// The direction's two permanent simulator slots.
	serviceSlot, deliverSlot int32

	// lastDelivery enforces FIFO delivery despite per-packet jitter: a
	// wire does not reorder. (netem's jitter famously does reorder,
	// which wrecks Reno with spurious duplicate ACKs; the paper's Linux
	// stacks tolerated that via SACK/DSACK heuristics this simulator's
	// leaner TCP lacks, so the link removes the artifact instead.)
	lastDelivery time.Duration
}

// Link is a duplex point-to-point link between two NICs.
type Link struct {
	sim  *Sim
	name string
	dirs [2]*linkDir
	down bool
}

// Direction selects one of the two directions of a duplex link.
type Direction int

// Link directions. AtoB is from the first NIC passed to Connect toward
// the second.
const (
	AtoB Direction = 0
	BtoA Direction = 1
)

// Connect creates a duplex link between NICs a and b with per-direction
// configs. The NICs must not already be attached to a link.
func Connect(sim *Sim, name string, a, b *NIC, cfgAB, cfgBA LinkConfig) *Link {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("simnet: NIC already connected (%s / %s)", a.Name, b.Name))
	}
	normalize := func(c *LinkConfig) {
		if c.Rate <= 0 {
			panic("simnet: link rate must be positive")
		}
		if c.QueueBytes <= 0 {
			c.QueueBytes = DefaultQueueBytes
		}
	}
	normalize(&cfgAB)
	normalize(&cfgBA)
	l := &Link{sim: sim, name: name}
	l.dirs[AtoB] = newLinkDir(l, cfgAB, b)
	l.dirs[BtoA] = newLinkDir(l, cfgBA, a)
	a.link, a.linkDir = l, l.dirs[AtoB]
	b.link, b.linkDir = l, l.dirs[BtoA]
	return l
}

func newLinkDir(l *Link, cfg LinkConfig, dst *NIC) *linkDir {
	d := &linkDir{link: l, cfg: cfg, dst: dst}
	d.serviceSlot = l.sim.alloc(slot{kind: kindService, dir: d})
	d.deliverSlot = l.sim.alloc(slot{kind: kindDeliver, dir: d})
	return d
}

// ConnectSym creates a duplex link with the same config in both
// directions.
func ConnectSym(sim *Sim, name string, a, b *NIC, cfg LinkConfig) *Link {
	return Connect(sim, name, a, b, cfg, cfg)
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// SetRateFn installs a dynamic capacity function for the given direction,
// overriding the static Rate. Pass nil to restore the static value.
func (l *Link) SetRateFn(d Direction, fn func(now time.Duration) float64) { l.dirs[d].rateFn = fn }

// SetLossFn installs a dynamic channel-loss probability for the given
// direction, overriding the static Loss.
func (l *Link) SetLossFn(d Direction, fn func(now time.Duration) float64) { l.dirs[d].lossFn = fn }

// SetPerTryLossFn installs a per-transmission-attempt error probability
// (wireless channel errors, recovered by link-layer retries).
func (l *Link) SetPerTryLossFn(d Direction, fn func(now time.Duration) float64) {
	l.dirs[d].perTryLossFn = fn
}

// AddBusyFn registers a fluid background-load source on a direction. The
// function returns the fraction of capacity [0,1) that background traffic
// occupies at a given time; multiple sources add up (capped below 1).
// Fluid background both reduces the rate available to foreground packets
// and inflates queueing delay, which is how iperf-style congestion and
// D-ITG-style variation are modelled without per-packet cost.
func (l *Link) AddBusyFn(d Direction, fn func(now time.Duration) float64) {
	l.dirs[d].busyFns = append(l.dirs[d].busyFns, fn)
}

// SetDown marks the whole link up or down. While down, packets offered to
// either direction are dropped as channel losses. A transition to down
// increments the Disconnects counter on both endpoint NICs.
func (l *Link) SetDown(down bool) {
	if down && !l.down {
		l.dirs[AtoB].dst.Disconnects++
		l.dirs[BtoA].dst.Disconnects++
	}
	l.down = down
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// Stats returns a copy of the counters for a direction.
func (l *Link) Stats(d Direction) DirStats { return l.dirs[d].stats }

// Config returns the static configuration of a direction.
func (l *Link) Config(d Direction) LinkConfig { return l.dirs[d].cfg }

// busyFrac sums the fluid background load on the direction, capped just
// below 1 so the effective rate stays positive.
func (d *linkDir) busyFrac(now time.Duration) float64 {
	var b float64
	for _, fn := range d.busyFns {
		b += fn(now)
	}
	if b < 0 {
		b = 0
	}
	if b > 0.98 {
		b = 0.98
	}
	return b
}

// effectiveRate is the capacity available to foreground packets.
func (d *linkDir) effectiveRate(now time.Duration) float64 {
	r := d.cfg.Rate
	if d.rateFn != nil {
		r = d.rateFn(now)
	}
	r *= 1 - d.busyFrac(now)
	return math.Max(r, minEffectiveRate)
}

func (d *linkDir) lossProb(now time.Duration) float64 {
	p := d.cfg.Loss
	if d.lossFn != nil {
		p = d.lossFn(now)
	}
	// Heavy fluid cross traffic overflows the shared queue: model the
	// overflow as extra loss once occupancy passes 90%.
	if b := d.busyFrac(now); b > 0.90 {
		p += (b - 0.90) * 2.5
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// crossQueueDelay models time spent behind fluid cross-traffic in the
// shared queue, using an M/M/1-style rho/(1-rho) growth on the mean
// packet service time, randomized +-50% and capped at 400ms.
func (d *linkDir) crossQueueDelay(now time.Duration) time.Duration {
	b := d.busyFrac(now)
	if b <= 0 {
		return 0
	}
	rate := d.cfg.Rate
	if d.rateFn != nil {
		rate = d.rateFn(now)
	}
	if rate < minEffectiveRate {
		rate = minEffectiveRate
	}
	meanPktTime := 1500 * 8 / rate // seconds
	qd := meanPktTime * b / (1 - b)
	qd *= 0.5 + d.link.sim.rng.Float64() // +-50%
	del := time.Duration(qd * float64(time.Second))
	if del > 400*time.Millisecond {
		del = 400 * time.Millisecond
	}
	return del
}

// enqueue offers a packet to the direction's FIFO. Called by NIC.send.
func (d *linkDir) enqueue(pkt *Packet) {
	tr := d.link.sim.tracer
	if d.link.down {
		d.stats.ChannelLoss++
		if tr.Enabled() {
			tr.Instant("net", "channel_loss", fmt.Sprintf("link=%s down #%d %s", d.link.name, pkt.ID, pkt.Flow), 0)
		}
		return
	}
	if d.qBytes+pkt.Size() > d.cfg.QueueBytes {
		d.stats.QueueDrops++
		if tr.Enabled() {
			tr.Instant("net", "queue_drop", fmt.Sprintf("link=%s qbytes=%d #%d %s", d.link.name, d.qBytes, pkt.ID, pkt.Flow), 0)
		}
		return
	}
	d.queue.push(pkt)
	d.qBytes += pkt.Size()
	d.stats.Enqueued++
	if tr.Enabled() {
		tr.Instant("net", "enqueue", fmt.Sprintf("link=%s bytes=%d #%d %s", d.link.name, pkt.Size(), pkt.ID, pkt.Flow), 0)
	}
	if !d.busy {
		d.startService()
	}
}

// startService begins transmitting the head-of-line packet.
func (d *linkDir) startService() {
	d.busy = true
	pkt := d.queue.front()
	sim := d.link.sim
	now := sim.Now()

	rate := d.effectiveRate(now)
	txTime := time.Duration(float64(pkt.Size()*8) / rate * float64(time.Second))

	// Decide the number of transmission attempts. Channel errors are
	// recovered by link-layer retries (wireless MAC behaviour); the
	// netem-style Loss is applied once, un-recovered, as on a wire.
	tries := 1
	lost := false
	if p := d.perTryLoss(now); p > 0 {
		maxAttempts := 1 + d.cfg.Retries
		for tries = 1; tries <= maxAttempts; tries++ {
			if sim.rng.Float64() >= p {
				break // this attempt succeeded
			}
		}
		if tries > maxAttempts {
			tries = maxAttempts
			lost = true // every attempt failed
		}
	}
	if !lost && sim.rng.Float64() < d.lossProb(now) {
		lost = true
	}

	total := time.Duration(tries)*txTime + time.Duration(tries-1)*d.cfg.RetryBackoff
	d.stats.Retries += int64(tries - 1)
	if tries > 1 {
		if tr := sim.tracer; tr.Enabled() {
			tr.Instant("net", "retry", fmt.Sprintf("link=%s attempts=%d lost=%t #%d %s", d.link.name, tries, lost, pkt.ID, pkt.Flow), 0)
		}
	}

	d.lost = lost
	sim.push(now+total, d.serviceSlot)
	sim.live++
}

// serviceDone completes the transmission of the head-of-line packet.
// It runs when the key startService pushed pops.
func (d *linkDir) serviceDone() {
	sim := d.link.sim
	sim.live--
	// Packet leaves the queue whether or not it survived.
	pkt := d.queue.pop()
	d.qBytes -= pkt.Size()

	if d.link.down || d.lost {
		d.stats.ChannelLoss++
		if tr := sim.tracer; tr.Enabled() {
			tr.Instant("net", "channel_loss", fmt.Sprintf("link=%s #%d %s", d.link.name, pkt.ID, pkt.Flow), 0)
		}
	} else {
		d.stats.TxPackets++
		d.stats.TxBytes += int64(pkt.Size())
		latency := d.cfg.Delay + d.jitter() + d.crossQueueDelay(sim.Now())
		deliverAt := sim.Now() + latency
		if deliverAt < d.lastDelivery {
			deliverAt = d.lastDelivery // FIFO: no reordering on a wire
		}
		d.lastDelivery = deliverAt
		d.schedule(pkt, deliverAt)
	}
	if d.queue.len() > 0 {
		d.startService()
	} else {
		d.busy = false
	}
}

// flight is a packet on the wire, with the key of its delivery event.
type flight struct {
	at  time.Duration
	seq uint64
	pkt *Packet
}

// schedule takes a delivery key for pkt at t, exactly as At would, and
// appends the packet to the in-flight FIFO. Deliveries on one direction
// never reorder (t >= lastDelivery) and seq only grows, so the FIFO is
// sorted by key and only its head needs to sit in the simulator queue.
func (d *linkDir) schedule(pkt *Packet, t time.Duration) {
	sim := d.link.sim
	at, seq := sim.key(t)
	d.inflight.push(flight{at: at, seq: seq, pkt: pkt})
	sim.live++
	if d.inflight.len() == 1 {
		d.queueHead()
	}
}

// queueHead pushes the in-flight head under its stored key.
func (d *linkDir) queueHead() {
	f := d.inflight.front()
	d.link.sim.queue.Push(eventq.Entry{At: int64(f.at), Seq: f.seq, Slot: d.deliverSlot})
}

// deliverHead hands the oldest in-flight packet to the far NIC.
func (d *linkDir) deliverHead() {
	f := d.inflight.pop()
	d.link.sim.live--
	if d.inflight.len() > 0 {
		d.queueHead()
	}
	d.dst.receive(f.pkt)
}

func (d *linkDir) perTryLoss(now time.Duration) float64 {
	if d.perTryLossFn == nil {
		return 0
	}
	p := d.perTryLossFn(now)
	if p < 0 {
		return 0
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}

// jitter samples the netem-style normal jitter, truncated at zero.
func (d *linkDir) jitter() time.Duration {
	if d.cfg.JitterStd <= 0 {
		return 0
	}
	j := time.Duration(d.link.sim.rng.NormFloat64() * float64(d.cfg.JitterStd))
	if j < -d.cfg.Delay {
		j = -d.cfg.Delay
	}
	return j
}

// QueueDepthBytes reports the currently queued bytes on a direction
// (foreground packets only).
func (l *Link) QueueDepthBytes(d Direction) int { return l.dirs[d].qBytes }

// SetDelay overrides the static propagation delay of a direction (used
// by shaping faults, which tc/netem applies as a delay change).
func (l *Link) SetDelay(d Direction, delay time.Duration) { l.dirs[d].cfg.Delay = delay }

// SetLoss overrides the static channel loss probability of a direction.
func (l *Link) SetLoss(d Direction, p float64) { l.dirs[d].cfg.Loss = p }

// SetJitter overrides the delay jitter of a direction.
func (l *Link) SetJitter(d Direction, std time.Duration) { l.dirs[d].cfg.JitterStd = std }

// ring is a growable FIFO over a circular buffer. Unlike re-slicing a
// slice from the front, it reuses its storage and zeroes each vacated
// slot, so a departed packet is not kept reachable by the buffer.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// front returns the oldest element. The ring must not be empty.
func (r *ring[T]) front() T { return r.buf[r.head] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element. The ring must not be
// empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
