package tcpsim

import (
	"fmt"
	"time"

	"vqprobe/internal/simnet"
)

// State is the lifecycle state of a connection.
type State int

// Connection states. The set is smaller than the full RFC 793 diagram
// because the simulator does not model simultaneous open or TIME_WAIT.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait // FIN sent, waiting for it to be acknowledged
	StateDone    // everything sent and acknowledged / peer closed
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateDone:
		return "done"
	case StateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Timing and retry constants. RTOMin is deliberately below the RFC 6298
// 1s floor so testbed dynamics stay lively at simulated RTTs of tens of
// milliseconds; Linux uses 200ms, we use 300ms.
const (
	RTOMin        = 300 * time.Millisecond
	RTOMax        = 60 * time.Second
	RTOInitial    = time.Second
	initialCwnd   = 10 // segments (IW10)
	maxSynRetries = 6
	maxRTORetries = 10
	persistDelay  = 500 * time.Millisecond
)

// Stats counts connection-level events, for tests and ground truth. The
// passive probes do not read these; they re-derive everything from
// packets at their tap.
type Stats struct {
	SegsSent        int64
	SegsRcvd        int64
	PayloadSent     int64 // payload bytes sent, excluding retransmissions
	PayloadRetrans  int64 // payload bytes retransmitted
	Retransmits     int64 // data segments retransmitted (fast + RTO)
	FastRetransmits int64
	Timeouts        int64 // RTO firings
	RTTSamples      int64
}

// Conn is one endpoint of a simulated TCP connection. All methods must
// be called from simulator context (inside events); the simulator is
// single-threaded so no locking is needed.
type Conn struct {
	host   *Host
	flow   simnet.FlowKey // our outgoing flow
	server bool
	state  State

	// Negotiated parameters.
	mss     int // effective MSS after negotiation
	peerMSS int

	// Send state. Sequence offsets: SYN occupies [0,1), data occupies
	// [1, 1+appBytes), FIN occupies one more.
	sndUna        int64
	sndNxt        int64
	appBytes      int64 // bytes the application has queued in total
	sendClosed    bool
	finSent       bool
	sendDoneFired bool
	cwnd          float64 // bytes
	ssthresh      float64
	peerWnd       int
	dupAcks       int
	inRecovery    bool
	recover       int64

	// RTT estimation (single in-flight timing sample, Karn's rule).
	srtt, rttvar time.Duration
	rto          time.Duration
	timedSeq     int64
	timedAt      time.Duration
	timedValid   bool

	rtoTimer      *simnet.Timer
	persistTimer  *simnet.Timer
	synRetries    int
	rtoConsecutiv int

	// Receive state.
	rcvNxt int64
	rcvBuf int // receive buffer capacity (advertised window ceiling)
	// Delayed-ACK state (enabled via SetDelayedAck): in-order segments
	// are acknowledged every second segment or after delayedAckTimeout.
	delayedAck  bool
	unackedSegs int
	delAckTimer *simnet.Timer
	buffered    int64 // delivered to app but not yet consumed
	ooo         []span
	finSeq      int64 // sequence of peer FIN, -1 if none seen
	peerDone    bool
	autoRead    bool
	lowWnd      bool // window dropped below an MSS since last update ACK
	handshake   time.Duration

	// Application callbacks; any may be nil.
	OnEstablished func()
	OnData        func(n int) // n in-order payload bytes newly available
	OnPeerClose   func()      // peer FIN fully delivered
	OnSendDone    func()      // our FIN acknowledged
	OnAbort       func(reason string)

	stats Stats
}

type span struct{ start, end int64 }

func newConn(h *Host, flow simnet.FlowKey, server bool) *Conn {
	c := &Conn{
		host:     h,
		flow:     flow,
		server:   server,
		mss:      h.DefaultMSS,
		rcvBuf:   h.DefaultRcvBuf,
		rto:      RTOInitial,
		finSeq:   -1,
		autoRead: true,
		peerWnd:  h.DefaultRcvBuf,
	}
	c.cwnd = float64(initialCwnd * h.DefaultMSS)
	c.ssthresh = 1 << 30
	sim := h.Sim()
	c.rtoTimer = sim.NewTimer(c.onRTO)
	c.persistTimer = sim.NewTimer(c.onPersist)
	c.delAckTimer = sim.NewTimer(c.onDelayedAck)
	return c
}

// Flow returns the connection's outgoing flow key.
func (c *Conn) Flow() simnet.FlowKey { return c.flow }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// MSS returns the effective (negotiated) maximum segment size.
func (c *Conn) MSS() int { return c.mss }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// SetRcvBuf overrides the receive buffer capacity (and therefore the
// advertised-window ceiling). Must be called before data flows.
func (c *Conn) SetRcvBuf(n int) { c.rcvBuf = n }

// SetDelayedAck enables RFC 1122 delayed acknowledgements: in-order
// data is ACKed every second segment or after 100ms, whichever comes
// first. Out-of-order arrivals still trigger immediate duplicate ACKs
// (required for fast retransmit). Off by default: the testbed was
// calibrated with per-segment ACKs, and probes count pure ACKs either
// way.
func (c *Conn) SetDelayedAck(v bool) { c.delayedAck = v }

// SetAutoRead controls whether delivered bytes are consumed immediately
// (the default) or held in the receive buffer until Consume is called.
// Applications that model slow readers — the video player under CPU
// load — disable auto-read so the advertised window genuinely shrinks.
func (c *Conn) SetAutoRead(v bool) { c.autoRead = v }

// Buffered returns bytes delivered in order but not yet consumed.
func (c *Conn) Buffered() int64 { return c.buffered }

// Consume removes n bytes from the receive buffer, opening the
// advertised window. If the window was nearly closed, a window-update
// ACK is emitted so the sender resumes promptly.
func (c *Conn) Consume(n int64) {
	if n > c.buffered {
		n = c.buffered
	}
	c.buffered -= n
	if c.lowWnd && c.advertiseWnd() >= c.mss {
		c.lowWnd = false
		c.sendPure(simnet.FlagACK) // window update
	}
}

// Write queues n application bytes for transmission.
func (c *Conn) Write(n int64) {
	if n <= 0 || c.state == StateAborted || c.state == StateDone {
		return
	}
	c.appBytes += n
	c.trySend()
}

// Close marks the end of the application's data; a FIN is emitted once
// all queued bytes have been transmitted.
func (c *Conn) Close() {
	if c.sendClosed {
		return
	}
	c.sendClosed = true
	c.trySend()
}

// Abort tears the connection down immediately, firing OnAbort.
func (c *Conn) Abort(reason string) {
	if c.state == StateAborted || c.state == StateDone {
		return
	}
	c.state = StateAborted
	c.tracef("abort", "%s", reason)
	c.rtoTimer.Stop()
	c.persistTimer.Stop()
	c.host.forget(c)
	if c.OnAbort != nil {
		c.OnAbort(reason)
	}
}

// ---- connection establishment ----

func (c *Conn) startConnect() {
	c.state = StateSynSent
	c.handshake = c.sim().Now()
	c.sendSyn()
}

func (c *Conn) sendSyn() {
	hdr := &simnet.TCPHeader{Seq: 0, Flags: simnet.FlagSYN, Window: c.advertiseWnd(), MSS: c.host.DefaultMSS}
	c.emit(0, hdr)
	c.scheduleRTO()
}

func (c *Conn) sendSynAck() {
	hdr := &simnet.TCPHeader{Seq: 0, Ack: c.rcvNxt, Flags: simnet.FlagSYN | simnet.FlagACK,
		Window: c.advertiseWnd(), MSS: c.host.DefaultMSS}
	c.emit(0, hdr)
	c.scheduleRTO()
}

// HandshakeRTT returns how long establishment took (zero until
// established).
func (c *Conn) HandshakeRTT() time.Duration { return c.handshake }

func (c *Conn) establish() {
	c.state = StateEstablished
	c.handshake = c.sim().Now() - c.handshake
	c.sndUna, c.sndNxt = 1, 1
	c.synRetries = 0
	c.rtoTimer.Stop() // cancel handshake timer
	c.tracef("established", "handshake=%v", c.handshake)
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.trySend()
}

// ---- segment handling ----

func (c *Conn) handleSegment(pkt *simnet.Packet) {
	if c.state == StateAborted || c.state == StateDone {
		return
	}
	c.stats.SegsRcvd++
	hdr := pkt.TCP

	if hdr.Flags.Has(simnet.FlagRST) {
		c.Abort("peer reset")
		return
	}

	switch c.state {
	case StateClosed: // fresh server conn receiving the first SYN
		if hdr.Flags.Has(simnet.FlagSYN) && !hdr.Flags.Has(simnet.FlagACK) {
			c.state = StateSynRcvd
			c.handshake = c.sim().Now()
			c.rcvNxt = 1
			c.negotiateMSS(hdr.MSS)
			c.peerWnd = hdr.Window
			c.sendSynAck()
		}
		return
	case StateSynSent:
		if hdr.Flags.Has(simnet.FlagSYN | simnet.FlagACK) {
			c.rcvNxt = 1
			c.negotiateMSS(hdr.MSS)
			c.peerWnd = hdr.Window
			c.sndUna, c.sndNxt = 1, 1 // our SYN is acknowledged
			c.sendPure(simnet.FlagACK)
			c.establish()
		}
		return
	case StateSynRcvd:
		if hdr.Flags.Has(simnet.FlagSYN) && !hdr.Flags.Has(simnet.FlagACK) {
			c.sendSynAck() // duplicate SYN: client missed our SYN-ACK
			return
		}
		if hdr.Flags.Has(simnet.FlagACK) && hdr.Ack >= 1 {
			c.establish()
			// fall through: the segment may carry data too
		} else {
			return
		}
	}

	if hdr.Flags.Has(simnet.FlagSYN) {
		// Duplicate SYN or SYN-ACK after establishment: our handshake
		// ACK was lost. Re-acknowledge so the peer leaves SYN-RCVD.
		c.ackNow()
		return
	}

	// Application callbacks (OnData, OnSendDone, OnPeerClose) may call
	// Abort or Close reentrantly; re-check liveness after every step that
	// can run one, or an aborted connection keeps emitting ACKs and can
	// fire OnPeerClose after OnAbort.
	if hdr.Flags.Has(simnet.FlagACK) {
		c.processAck(hdr.Ack, hdr.Window, pkt.Payload == 0 && !hdr.Flags.Has(simnet.FlagFIN))
		if c.dead() {
			return
		}
	}
	if pkt.Payload > 0 {
		c.processData(hdr.Seq, int64(pkt.Payload))
		if c.dead() {
			return
		}
	}
	if hdr.Flags.Has(simnet.FlagFIN) {
		c.finSeq = hdr.Seq + int64(pkt.Payload)
		c.checkPeerFin()
		// Acknowledge the FIN (processData already ACKed any payload,
		// but a bare FIN needs its own ACK).
		if pkt.Payload == 0 {
			c.ackNow()
		}
	}
}

func (c *Conn) negotiateMSS(peer int) {
	c.peerMSS = peer
	if peer > 0 && peer < c.mss {
		c.mss = peer
	}
	c.cwnd = float64(initialCwnd * c.mss)
}

// processAck handles acknowledgement and window information.
func (c *Conn) processAck(ack int64, wnd int, pure bool) {
	prevWnd := c.peerWnd
	c.peerWnd = wnd

	switch {
	case ack > c.sndUna:
		acked := ack - c.sndUna
		c.sndUna = ack
		c.rtoConsecutiv = 0
		c.sampleRTT(ack)

		if c.inRecovery {
			if ack >= c.recover {
				c.cwnd = c.ssthresh
				c.inRecovery = false
				c.dupAcks = 0
			} else {
				// NewReno partial ACK: retransmit the next hole,
				// stay in recovery.
				c.retransmitUna()
			}
		} else {
			c.dupAcks = 0
			c.growCwnd(acked)
		}

		if c.flight() > 0 {
			c.scheduleRTO()
		} else {
			c.rtoTimer.Stop() // nothing outstanding
		}
		c.checkSendDone()
		c.trySend()

	// Duplicate ACK: same cumulative ack with data outstanding. The
	// advertised window is deliberately NOT compared — receivers whose
	// application drains the buffer between ACKs (the video player)
	// change the window on nearly every segment, and requiring an
	// unchanged window would disable fast retransmit entirely.
	case ack == c.sndUna && pure && c.flight() > 0:
		c.dupAcks++
		if c.inRecovery {
			c.cwnd += float64(c.mss) // inflate per extra dup ACK
			c.trySend()
		} else if c.dupAcks == 3 {
			c.enterFastRecovery()
		}

	default:
		// Old ACK; a growing window may still unblock us.
		if wnd > prevWnd {
			c.trySend()
		}
	}
	if wnd > prevWnd {
		c.trySend()
	}
}

func (c *Conn) enterFastRecovery() {
	c.ssthresh = maxf(float64(c.flight())/2, float64(2*c.mss))
	c.recover = c.sndNxt
	c.inRecovery = true
	c.cwnd = c.ssthresh + 3*float64(c.mss)
	c.stats.FastRetransmits++
	c.tracef("fast_retransmit", "una=%d ssthresh=%.0f", c.sndUna, c.ssthresh)
	c.retransmitUna()
}

func (c *Conn) growCwnd(acked int64) {
	if c.cwnd < c.ssthresh { // slow start
		inc := float64(acked)
		if inc > float64(c.mss) {
			inc = float64(c.mss)
		}
		c.cwnd += inc
		if c.cwnd >= c.ssthresh {
			c.tracef("aimd", "slow start -> congestion avoidance cwnd=%.0f ssthresh=%.0f", c.cwnd, c.ssthresh)
		}
	} else { // congestion avoidance
		c.cwnd += float64(c.mss) * float64(c.mss) / c.cwnd
	}
	if max := float64(64 * 1024 * 1024); c.cwnd > max {
		c.cwnd = max
	}
}

// processData handles an incoming payload-bearing segment.
func (c *Conn) processData(seq, n int64) {
	end := seq + n
	switch {
	case end <= c.rcvNxt:
		// Complete duplicate (a retransmission we already have):
		// re-ACK so the sender can move on.
		c.ackNow()
		return
	case seq <= c.rcvNxt:
		// In order (possibly partially duplicate).
		delivered := end - c.rcvNxt
		c.rcvNxt = end
		delivered += c.drainOOO()
		c.deliver(delivered)
		if c.dead() {
			return // the app aborted the connection from OnData
		}
		c.ackInOrder()
		c.checkPeerFin()
	default:
		// Out of order: stash and emit a duplicate ACK.
		c.addOOO(seq, end)
		c.ackNow()
	}
}

func (c *Conn) addOOO(start, end int64) {
	for _, s := range c.ooo {
		if start >= s.start && end <= s.end {
			return // fully contained
		}
	}
	c.ooo = append(c.ooo, span{start, end})
}

// drainOOO advances rcvNxt over any stored segments now contiguous and
// returns the number of bytes released.
func (c *Conn) drainOOO() int64 {
	var released int64
	for {
		advanced := false
		keep := c.ooo[:0]
		for _, s := range c.ooo {
			if s.start <= c.rcvNxt && s.end > c.rcvNxt {
				released += s.end - c.rcvNxt
				c.rcvNxt = s.end
				advanced = true
			} else if s.end > c.rcvNxt {
				keep = append(keep, s)
			}
		}
		c.ooo = keep
		if !advanced {
			return released
		}
	}
}

func (c *Conn) deliver(n int64) {
	if n <= 0 {
		return
	}
	if c.autoRead {
		if c.OnData != nil {
			c.OnData(int(n))
		}
		return
	}
	c.buffered += n
	if c.advertiseWnd() < c.mss {
		c.lowWnd = true
	}
	if c.OnData != nil {
		c.OnData(int(n))
	}
}

func (c *Conn) checkPeerFin() {
	if c.dead() || c.peerDone || c.finSeq < 0 || c.rcvNxt < c.finSeq {
		return
	}
	c.rcvNxt = c.finSeq + 1 // FIN consumes one sequence number
	c.peerDone = true
	c.ackNow()
	if c.OnPeerClose != nil {
		c.OnPeerClose()
	}
	c.maybeDone()
}

func (c *Conn) checkSendDone() {
	if c.finSent && c.sndUna == c.dataEnd()+1 && !c.sendDoneFired {
		c.sendDoneFired = true
		if c.OnSendDone != nil {
			c.OnSendDone()
		}
		c.maybeDone()
	}
}

// maybeDone closes the connection once both directions are finished. A
// side that never sends a FIN (the video client keeps its request side
// open) still completes when the peer's FIN is consumed and it has
// nothing outstanding.
func (c *Conn) maybeDone() {
	ourSideDone := !c.sendClosed || (c.finSent && c.sndUna == c.dataEnd()+1)
	if c.peerDone && ourSideDone && c.flight() == 0 {
		c.state = StateDone
		c.rtoTimer.Stop()
		c.persistTimer.Stop()
		c.host.forget(c)
	}
}

// ---- sending ----

// dead reports whether the connection has been torn down (aborted or
// fully closed) and must neither emit segments nor fire callbacks.
func (c *Conn) dead() bool { return c.state == StateAborted || c.state == StateDone }

func (c *Conn) dataEnd() int64 { return 1 + c.appBytes }

func (c *Conn) flight() int64 { return c.sndNxt - c.sndUna }

func (c *Conn) advertiseWnd() int {
	w := int64(c.rcvBuf) - c.buffered
	if w < 0 {
		w = 0
	}
	return int(w)
}

func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateFinWait {
		return
	}
	limit := int64(c.cwnd)
	if pw := int64(c.peerWnd); pw < limit {
		limit = pw
	}
	sent := false
	for c.sndNxt < c.dataEnd() {
		allowed := c.sndUna + limit - c.sndNxt
		if allowed <= 0 {
			break
		}
		n := int64(c.mss)
		if rem := c.dataEnd() - c.sndNxt; rem < n {
			n = rem
		}
		if n > allowed {
			n = allowed
		}
		c.sendData(c.sndNxt, n, false)
		c.sndNxt += n
		sent = true
	}
	// Emit FIN once all data is out (FIN rides the window for free).
	if c.sendClosed && !c.finSent && c.sndNxt == c.dataEnd() {
		c.finSent = true
		c.state = StateFinWait
		hdr := &simnet.TCPHeader{Seq: c.sndNxt, Ack: c.rcvNxt,
			Flags: simnet.FlagFIN | simnet.FlagACK, Window: c.advertiseWnd()}
		c.emit(0, hdr)
		c.sndNxt++
		c.scheduleRTO()
		sent = true
	}
	if sent {
		return
	}
	// Zero-window deadlock? Arm the persist timer.
	if c.peerWnd == 0 && c.flight() == 0 && c.sndNxt < c.dataEnd() {
		c.schedulePersist()
	}
}

func (c *Conn) sendData(seq, n int64, rtx bool) {
	flags := simnet.FlagACK
	if seq+n == c.dataEnd() {
		flags |= simnet.FlagPSH
	}
	hdr := &simnet.TCPHeader{Seq: seq, Ack: c.rcvNxt, Flags: flags, Window: c.advertiseWnd()}
	c.emit(int(n), hdr)
	if rtx {
		c.stats.Retransmits++
		c.stats.PayloadRetrans += n
		if seq <= c.timedSeq {
			c.timedValid = false // Karn: never time retransmitted data
		}
	} else {
		c.stats.PayloadSent += n
		if !c.timedValid {
			c.timedSeq = seq + n
			c.timedAt = c.sim().Now()
			c.timedValid = true
		}
	}
	c.scheduleRTO()
}

func (c *Conn) retransmitUna() {
	n := int64(c.mss)
	if rem := c.dataEnd() - c.sndUna; rem < n {
		n = rem
	}
	if n <= 0 {
		if c.sendClosed && !c.finSent {
			c.trySend() // go-back-N reset the FIN flag; re-emit it
			return
		}
		// Only the FIN is outstanding: resend it.
		if c.finSent {
			hdr := &simnet.TCPHeader{Seq: c.dataEnd(), Ack: c.rcvNxt,
				Flags: simnet.FlagFIN | simnet.FlagACK, Window: c.advertiseWnd()}
			c.emit(0, hdr)
			c.scheduleRTO()
		}
		return
	}
	c.sendData(c.sndUna, n, true)
	if c.sndNxt < c.sndUna+n {
		c.sndNxt = c.sndUna + n // after go-back-N the edge follows the retransmission
	}
}

func (c *Conn) ackNow() {
	c.unackedSegs = 0
	c.delAckTimer.Stop() // cancel any pending delayed ACK
	c.sendPure(simnet.FlagACK)
}

// delayedAckTimeout bounds how long an in-order segment may wait for a
// companion before being acknowledged.
const delayedAckTimeout = 100 * time.Millisecond

// ackInOrder acknowledges in-order data, coalescing every second
// segment when delayed ACKs are enabled.
func (c *Conn) ackInOrder() {
	if !c.delayedAck {
		c.ackNow()
		return
	}
	c.unackedSegs++
	if c.unackedSegs >= 2 {
		c.ackNow()
		return
	}
	c.delAckTimer.Reset(delayedAckTimeout)
}

func (c *Conn) onDelayedAck() {
	if c.unackedSegs > 0 && !c.dead() {
		c.ackNow()
	}
}

func (c *Conn) sendPure(flags simnet.TCPFlags) {
	if c.dead() {
		return // never emit from a torn-down connection
	}
	hdr := &simnet.TCPHeader{Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags, Window: c.advertiseWnd()}
	c.emit(0, hdr)
}

func (c *Conn) emit(payload int, hdr *simnet.TCPHeader) {
	c.stats.SegsSent++
	pkt := c.sim().NewPacket(c.flow, payload, hdr)
	c.host.send(pkt)
}

func (c *Conn) sim() *simnet.Sim { return c.host.Sim() }

// tracef records a connection-level instant event ("tcp" track) on the
// simulation's tracer, tagged with the connection's flow key. The format
// arguments are only rendered when a tracer is attached.
func (c *Conn) tracef(name, format string, args ...any) {
	tr := c.sim().Tracer()
	if !tr.Enabled() {
		return
	}
	tr.Instant("tcp", name, fmt.Sprintf(format, args...)+" ["+c.flow.String()+"]", 0)
}

// ---- timers ----

func (c *Conn) sampleRTT(ack int64) {
	if !c.timedValid || ack < c.timedSeq {
		return
	}
	r := c.sim().Now() - c.timedAt
	c.timedValid = false
	c.stats.RTTSamples++
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < RTOMin {
		c.rto = RTOMin
	}
	if c.rto > RTOMax {
		c.rto = RTOMax
	}
}

func (c *Conn) scheduleRTO() { c.rtoTimer.Reset(c.rto) }

func (c *Conn) onRTO() {
	switch c.state {
	case StateSynSent:
		c.synRetries++
		if c.synRetries > maxSynRetries {
			c.Abort("connect timeout")
			return
		}
		c.rto = minDur(c.rto*2, RTOMax)
		c.sendSyn()
	case StateSynRcvd:
		c.synRetries++
		if c.synRetries > maxSynRetries {
			c.Abort("handshake timeout")
			return
		}
		c.rto = minDur(c.rto*2, RTOMax)
		c.sendSynAck()
	case StateEstablished, StateFinWait:
		if c.flight() == 0 {
			return
		}
		c.stats.Timeouts++
		c.rtoConsecutiv++
		c.tracef("rto", "rto=%v consecutive=%d una=%d", c.rto, c.rtoConsecutiv, c.sndUna)
		if c.rtoConsecutiv > maxRTORetries {
			c.Abort("retransmission limit exceeded")
			return
		}
		c.ssthresh = maxf(float64(c.flight())/2, float64(2*c.mss))
		c.cwnd = float64(c.mss)
		c.inRecovery = false
		c.dupAcks = 0
		c.rto = minDur(c.rto*2, RTOMax)
		// Go-back-N: pull the send edge back so slow start refills the
		// window from the loss point; the receiver re-ACKs anything it
		// already holds out of order.
		if c.finSent && c.sndNxt > c.dataEnd() {
			c.finSent = false // the FIN will be re-emitted after the data
		}
		c.sndNxt = c.sndUna
		c.timedValid = false
		c.retransmitUna()
	}
}

func (c *Conn) schedulePersist() { c.persistTimer.Reset(persistDelay) }

func (c *Conn) onPersist() {
	if c.state != StateEstablished {
		return
	}
	if c.peerWnd == 0 && c.flight() == 0 && c.sndNxt < c.dataEnd() {
		// Window probe: one byte beyond the edge.
		c.sendData(c.sndNxt, 1, false)
		c.sndNxt++
		c.schedulePersist()
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
