package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	s.At(10*time.Millisecond, func() {
		s.At(5*time.Millisecond, func() { fired = s.Now() })
	})
	s.RunAll()
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamped to 10ms", fired)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(10*time.Millisecond, func() { ran++ })
	s.At(50*time.Millisecond, func() { ran++ })
	s.Run(20 * time.Millisecond)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("Now = %v, want 20ms", s.Now())
	}
	s.Run(time.Second)
	if ran != 2 {
		t.Errorf("second Run executed %d total, want 2", ran)
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(time.Millisecond, func() { ran++; s.Halt() })
	s.At(2*time.Millisecond, func() { ran++ })
	s.RunAll()
	if ran != 1 {
		t.Fatalf("Halt did not stop the loop: ran=%d", ran)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// TestPendingCountsLiveEvents: Pending counts the packet in service,
// packets in flight (of which only the head sits in the queue), armed
// timers and closures, and ignores superseded and stopped timer
// deadlines that are still queued.
func TestPendingCountsLiveEvents(t *testing.T) {
	s := New(1)
	// 8 Mbit/s, 10ms delay: 1000B wire packets serialize in 1ms each.
	a, _, _, got := twoHosts(s, LinkConfig{Rate: 8e6, Delay: 10 * time.Millisecond})
	for i := 0; i < 3; i++ {
		a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 1000-HeaderBytes, nil))
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d with one packet in service, want 1", s.Pending())
	}
	s.Run(2500 * time.Microsecond)
	// Two packets in flight (due at 11ms and 12ms), one in service.
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d with 2 in flight + 1 in service, want 3", s.Pending())
	}

	var rearmedAt, stoppedAt []time.Duration
	rearmed := s.NewTimer(func() { rearmedAt = append(rearmedAt, s.Now()) })
	stopped := s.NewTimer(func() { stoppedAt = append(stoppedAt, s.Now()) })
	rearmed.Reset(5 * time.Millisecond)
	rearmed.Reset(30 * time.Millisecond) // supersedes the queued 5ms deadline
	stopped.Reset(time.Millisecond)
	stopped.Stop()
	stopped.Stop() // stopping twice must not undercount
	closureRan := false
	s.After(20*time.Millisecond, func() { closureRan = true })
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 3 packets + 1 re-armed timer + 1 closure = 5", s.Pending())
	}

	// Past the superseded 5ms deadline: it popped without firing.
	s.Run(10 * time.Millisecond)
	if len(rearmedAt) != 0 || len(stoppedAt) != 0 {
		t.Fatalf("superseded/stopped deadline fired: rearmed=%v stopped=%v", rearmedAt, stoppedAt)
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d after superseded deadline popped, want 5", s.Pending())
	}
	s.RunAll()
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after draining, want 0", s.Pending())
	}
	if len(*got) != 3 || !closureRan {
		t.Errorf("delivered %d packets (want 3), closure ran %t", len(*got), closureRan)
	}
	if want := 2500*time.Microsecond + 30*time.Millisecond; len(rearmedAt) != 1 || rearmedAt[0] != want {
		t.Errorf("re-armed timer fired at %v, want once at %v", rearmedAt, want)
	}
	if len(stoppedAt) != 0 {
		t.Errorf("stopped timer fired at %v", stoppedAt)
	}
	// Closures and timers hand their slots back once nothing refers to
	// them; only the link's four permanent slots stay taken.
	if taken := len(s.slots) - len(s.free); taken != 4 {
		t.Errorf("%d slots still taken after draining, want the link's 4", taken)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []time.Duration
	tk := NewTicker(s, 100*time.Millisecond, func(now time.Duration) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			s.Halt()
		}
	})
	s.RunAll()
	tk.Stop()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(s, 10*time.Millisecond, func(now time.Duration) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.Run(time.Second)
	if n != 2 {
		t.Fatalf("ticker fired %d times after Stop, want 2", n)
	}
}

// twoHosts builds a minimal a<->b topology and returns both nodes, the
// link, and a channel-free capture of packets delivered to b.
func twoHosts(s *Sim, cfg LinkConfig) (a, b *Node, link *Link, gotB *[]*Packet) {
	a = s.NewNode("a", 1)
	b = s.NewNode("b", 2)
	na := a.AddNIC("eth0")
	nb := b.AddNIC("eth0")
	link = ConnectSym(s, "ab", na, nb, cfg)
	var got []*Packet
	b.SetHandler(HandlerFunc(func(nic *NIC, pkt *Packet) { got = append(got, pkt) }))
	return a, b, link, &got
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := New(1)
	// 8 Mbit/s, 10ms delay: a 960B payload packet (1000B wire) takes
	// 1ms serialization + 10ms propagation.
	a, _, _, got := twoHosts(s, LinkConfig{Rate: 8e6, Delay: 10 * time.Millisecond})
	pkt := s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 1000-HeaderBytes, nil)
	a.Send(a.NICs()[0], pkt)
	s.RunAll()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	if want := 11 * time.Millisecond; s.Now() != want {
		t.Errorf("delivery at %v, want %v", s.Now(), want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := New(1)
	a, _, _, got := twoHosts(s, LinkConfig{Rate: 8e6, Delay: 0})
	for i := 0; i < 3; i++ {
		a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 1000-HeaderBytes, nil))
	}
	s.RunAll()
	if len(*got) != 3 {
		t.Fatalf("delivered %d, want 3", len(*got))
	}
	// Three 1ms serializations back to back.
	if want := 3 * time.Millisecond; s.Now() != want {
		t.Errorf("last delivery at %v, want %v", s.Now(), want)
	}
}

func TestQueueTailDrop(t *testing.T) {
	s := New(1)
	a, _, link, got := twoHosts(s, LinkConfig{Rate: 1e6, Delay: 0, QueueBytes: 2500})
	for i := 0; i < 10; i++ {
		a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 1000-HeaderBytes, nil))
	}
	s.RunAll()
	st := link.Stats(AtoB)
	if st.QueueDrops == 0 {
		t.Error("expected tail drops on a 2500B queue fed 10x1000B")
	}
	if len(*got)+int(st.QueueDrops) != 10 {
		t.Errorf("delivered %d + dropped %d != 10", len(*got), st.QueueDrops)
	}
}

func TestChannelLoss(t *testing.T) {
	s := New(42)
	a, _, link, got := twoHosts(s, LinkConfig{Rate: 1e9, Delay: 0, Loss: 0.5, QueueBytes: 1 << 30})
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	}
	s.RunAll()
	loss := float64(link.Stats(AtoB).ChannelLoss) / n
	if loss < 0.45 || loss > 0.55 {
		t.Errorf("measured loss %.3f, want ~0.5", loss)
	}
	if len(*got)+int(link.Stats(AtoB).ChannelLoss) != n {
		t.Errorf("delivered+lost != sent")
	}
}

func TestLinkRetriesRecoverLoss(t *testing.T) {
	s := New(7)
	a, _, link, got := twoHosts(s, LinkConfig{Rate: 1e9, Delay: 0, Retries: 7, QueueBytes: 1 << 30})
	link.SetPerTryLossFn(AtoB, func(time.Duration) float64 { return 0.5 })
	const n = 500
	for i := 0; i < n; i++ {
		a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	}
	s.RunAll()
	st := link.Stats(AtoB)
	// With 7 retries at p=0.5, residual loss is ~0.5^8 = 0.4%.
	if got := float64(st.ChannelLoss) / n; got > 0.03 {
		t.Errorf("residual loss %.3f despite retries, want <3%%", got)
	}
	if st.Retries == 0 {
		t.Error("expected link-layer retries to be counted")
	}
	if len(*got) < n*9/10 {
		t.Errorf("delivered only %d/%d", len(*got), n)
	}
}

func TestLinkDown(t *testing.T) {
	s := New(1)
	a, b, link, got := twoHosts(s, LinkConfig{Rate: 1e6, Delay: 0})
	link.SetDown(true)
	a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	s.RunAll()
	if len(*got) != 0 {
		t.Error("packet delivered over a down link")
	}
	if b.NICs()[0].Disconnects != 1 || a.NICs()[0].Disconnects != 1 {
		t.Error("SetDown(true) should count one disconnect per endpoint")
	}
	link.SetDown(true) // no transition
	if b.NICs()[0].Disconnects != 1 {
		t.Error("repeated SetDown(true) must not double-count")
	}
	link.SetDown(false)
	a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	s.RunAll()
	if len(*got) != 1 {
		t.Error("packet not delivered after link back up")
	}
}

func TestBusyFnSlowsForeground(t *testing.T) {
	// With 80% fluid background load, 10 packets on a 8Mbit/s link
	// should take ~5x longer than unloaded.
	elapsed := func(busy float64) time.Duration {
		s := New(1)
		a, _, link, _ := twoHosts(s, LinkConfig{Rate: 8e6, Delay: 0, QueueBytes: 1 << 20})
		if busy > 0 {
			link.AddBusyFn(AtoB, func(time.Duration) float64 { return busy })
		}
		for i := 0; i < 10; i++ {
			a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 1000-HeaderBytes, nil))
		}
		s.RunAll()
		return s.Now()
	}
	base, loaded := elapsed(0), elapsed(0.8)
	if loaded < 4*base {
		t.Errorf("80%% busy link finished in %v vs %v unloaded; want >=4x slower", loaded, base)
	}
}

func TestRouterForwards(t *testing.T) {
	s := New(1)
	host := s.NewNode("host", 1)
	rt := s.NewNode("router", 100)
	dst := s.NewNode("dst", 2)

	h0 := host.AddNIC("eth0")
	r0 := rt.AddNIC("lan")
	r1 := rt.AddNIC("wan")
	d0 := dst.AddNIC("eth0")
	ConnectSym(s, "h-r", h0, r0, LinkConfig{Rate: 1e9})
	ConnectSym(s, "r-d", r1, d0, LinkConfig{Rate: 1e9})

	router := NewRouter(rt)
	router.AddRoute(1, r0)
	router.AddRoute(2, r1)

	var got []*Packet
	dst.SetHandler(HandlerFunc(func(nic *NIC, pkt *Packet) { got = append(got, pkt) }))
	host.Send(h0, s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	s.RunAll()
	if len(got) != 1 {
		t.Fatalf("router delivered %d packets, want 1", len(got))
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	s := New(1)
	host := s.NewNode("host", 1)
	rt := s.NewNode("router", 100)
	h0 := host.AddNIC("eth0")
	r0 := rt.AddNIC("lan")
	ConnectSym(s, "h-r", h0, r0, LinkConfig{Rate: 1e9})
	NewRouter(rt) // no routes at all
	host.Send(h0, s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 99}, 100, nil))
	s.RunAll() // must terminate without panic
}

func TestTapsSeeBothDirections(t *testing.T) {
	s := New(1)
	a, b, _, _ := twoHosts(s, LinkConfig{Rate: 1e9})
	var outs, ins int
	b.AddTap(func(now time.Duration, nic *NIC, pkt *Packet, dir PacketDir) {
		if dir == DirIn {
			ins++
		} else {
			outs++
		}
	})
	// a -> b
	a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 100, nil))
	s.RunAll()
	// b -> a
	b.Send(b.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 2, Dst: 1}, 100, nil))
	s.RunAll()
	if ins != 1 || outs != 1 {
		t.Errorf("tap saw in=%d out=%d, want 1/1", ins, outs)
	}
}

func TestNICCounters(t *testing.T) {
	s := New(1)
	a, b, _, _ := twoHosts(s, LinkConfig{Rate: 1e9})
	pkt := s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 960, nil)
	a.Send(a.NICs()[0], pkt)
	s.RunAll()
	if a.NICs()[0].TxBytes != 1000 || b.NICs()[0].RxBytes != 1000 {
		t.Errorf("counters tx=%d rx=%d, want 1000/1000", a.NICs()[0].TxBytes, b.NICs()[0].RxBytes)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		s := New(99)
		a, _, link, _ := twoHosts(s, LinkConfig{Rate: 1e6, Delay: 5 * time.Millisecond,
			JitterStd: time.Millisecond, Loss: 0.1, QueueBytes: 8000})
		for i := 0; i < 200; i++ {
			a.Send(a.NICs()[0], s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 500, nil))
		}
		s.RunAll()
		return s.Now(), link.Stats(AtoB).ChannelLoss
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Errorf("same seed diverged: (%v,%d) vs (%v,%d)", t1, l1, t2, l2)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	f := func(src, dst int16, sp, dp uint16) bool {
		k := FlowKey{Proto: ProtoTCP, Src: Addr(src), Dst: Addr(dst), SrcPort: int(sp), DstPort: int(dp)}
		return k.Reverse().Reverse() == k &&
			k.Reverse().Src == k.Dst && k.Reverse().DstPort == k.SrcPort
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketSize(t *testing.T) {
	s := New(1)
	p := s.NewPacket(FlowKey{}, 1460, &TCPHeader{})
	if p.Size() != 1460+HeaderBytes {
		t.Errorf("Size = %d, want %d", p.Size(), 1460+HeaderBytes)
	}
	if !p.IsTCP() {
		t.Error("IsTCP = false with header present")
	}
}

func TestPacketIDsUnique(t *testing.T) {
	s := New(1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		p := s.NewPacket(FlowKey{}, 0, nil)
		if seen[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		seen[p.ID] = true
	}
}

// TestPacketConservation: after the simulation drains, every packet
// offered to a link direction is accounted for exactly once as
// delivered, queue-dropped, or channel-lost.
func TestPacketConservation(t *testing.T) {
	f := func(seed int64, nPkts uint8, lossPct, busyPct uint8) bool {
		s := New(seed)
		a := s.NewNode("a", 1)
		b := s.NewNode("b", 2)
		an, bn := a.AddNIC("0"), b.AddNIC("0")
		link := ConnectSym(s, "l", an, bn, LinkConfig{
			Rate: 2e6, Delay: 5 * time.Millisecond,
			Loss:       float64(lossPct%90) / 100,
			QueueBytes: 8000,
		})
		if busyPct > 0 {
			bf := float64(busyPct%80) / 100
			link.AddBusyFn(AtoB, func(time.Duration) float64 { return bf })
		}
		delivered := 0
		b.SetHandler(HandlerFunc(func(*NIC, *Packet) { delivered++ }))
		n := int(nPkts)%120 + 1
		for i := 0; i < n; i++ {
			a.Send(an, s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 500, nil))
		}
		s.RunAll()
		st := link.Stats(AtoB)
		return delivered+int(st.QueueDrops)+int(st.ChannelLoss) == n &&
			int(st.Enqueued) == n-int(st.QueueDrops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFIFODeliveryOrder: jitter must never reorder packets on a wire.
func TestFIFODeliveryOrder(t *testing.T) {
	s := New(5)
	a := s.NewNode("a", 1)
	b := s.NewNode("b", 2)
	an, bn := a.AddNIC("0"), b.AddNIC("0")
	ConnectSym(s, "l", an, bn, LinkConfig{
		Rate: 50e6, Delay: 10 * time.Millisecond, JitterStd: 8 * time.Millisecond,
		QueueBytes: 1 << 20,
	})
	var got []uint64
	b.SetHandler(HandlerFunc(func(_ *NIC, p *Packet) { got = append(got, p.ID) }))
	var sent []uint64
	for i := 0; i < 300; i++ {
		p := s.NewPacket(FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}, 200, nil)
		sent = append(sent, p.ID)
		a.Send(an, p)
	}
	s.RunAll()
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d", len(got), len(sent))
	}
	for i := range got {
		if got[i] != sent[i] {
			t.Fatalf("reordered at %d: got %d want %d", i, got[i], sent[i])
		}
	}
}

// forwardingPath builds host -> router -> dst over two links, the
// topology of BenchmarkSimnetForwarding.
func forwardingPath(s *Sim) (send func(), links [2]*Link) {
	h := s.NewNode("h", 1)
	r := s.NewNode("r", 100)
	d := s.NewNode("d", 2)
	hn := h.AddNIC("0")
	r0, r1 := r.AddNIC("0"), r.AddNIC("1")
	dn := d.AddNIC("0")
	links[0] = ConnectSym(s, "a", hn, r0, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueBytes: 1 << 30})
	links[1] = ConnectSym(s, "b", r1, dn, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueBytes: 1 << 30})
	rt := NewRouter(r)
	rt.AddRoute(2, r1)
	d.SetHandler(HandlerFunc(func(*NIC, *Packet) {}))
	flow := FlowKey{Proto: ProtoUDP, Src: 1, Dst: 2}
	return func() { h.Send(hn, s.NewPacket(flow, 1460, nil)) }, links
}

// TestForwardingAllocatesOnlyPackets pins the event core's allocation
// budget: once the queues have grown, forwarding a burst through two
// links and a router allocates the packets themselves and nothing else
// — no per-event closure, no escaping queue entry, no FIFO regrowth.
func TestForwardingAllocatesOnlyPackets(t *testing.T) {
	s := New(1)
	send, _ := forwardingPath(s)
	const burst = 8
	run := func() {
		for i := 0; i < burst; i++ {
			send()
		}
		s.RunAll()
	}
	run() // warm up: grow the rings, the heap and the slot table
	if allocs := testing.AllocsPerRun(200, run); allocs > burst {
		t.Errorf("forwarding %d packets allocated %.1f times, want %d (the packets)", burst, allocs, burst)
	}
}

// TestLinkFIFOReleasesDepartedPackets: once a packet has left a link's
// queue and been delivered, neither FIFO's storage still references it.
// (Re-slicing the queue from the front used to keep every departed
// packet reachable until the slice happened to be reallocated.)
func TestLinkFIFOReleasesDepartedPackets(t *testing.T) {
	s := New(1)
	send, links := forwardingPath(s)
	for i := 0; i < 20; i++ {
		send()
	}
	s.RunAll()
	for _, l := range links {
		for _, d := range l.dirs {
			for i, p := range d.queue.buf {
				if p != nil {
					t.Errorf("link %s queue slot %d still holds packet #%d", l.name, i, p.ID)
				}
			}
			for i, f := range d.inflight.buf {
				if f.pkt != nil {
					t.Errorf("link %s in-flight slot %d still holds packet #%d", l.name, i, f.pkt.ID)
				}
			}
		}
	}
}
