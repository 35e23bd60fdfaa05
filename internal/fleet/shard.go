package fleet

import (
	"strconv"
	"time"

	"vqprobe/internal/eventq"
	"vqprobe/internal/serve"
)

// shard is one event loop of the fleet: it owns MaxLive pooled session
// slots, a wake-up heap multiplexing the live set, and its private
// aggregation state. Shard s simulates every session index i with
// i % Shards == s; because session outcomes are index-pure, the shard
// is an independent unit of work and shards can execute on any worker
// in any order without changing a single bit of the merged summary.
type shard struct {
	id    int
	cfg   *Config
	agg   *Aggregator
	slots []session
	free  []int32
	heap  eventq.Heap // wake-ups keyed (time, slot): slot is the tie-break

	// engine-feeding batch buffers (nil engine leaves them unused)
	batchReqs []serve.Request
	batchSums []SessionSummary
	batchMaps []map[string]float64

	maxLive   int // high-water mark of concurrently live sessions
	completed uint64
}

func newShard(id int, cfg *Config) *shard {
	s := &shard{
		id:    id,
		cfg:   cfg,
		agg:   NewAggregator(cfg.Horizon, cfg.Window),
		slots: make([]session, cfg.MaxLive),
		free:  make([]int32, 0, cfg.MaxLive),
		heap:  eventq.New(cfg.MaxLive),
	}
	for i := cfg.MaxLive - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	if cfg.Engine != nil {
		n := cfg.DiagBatch
		s.batchReqs = make([]serve.Request, 0, n)
		s.batchSums = make([]SessionSummary, 0, n)
		s.batchMaps = make([]map[string]float64, n)
		for i := range s.batchMaps {
			s.batchMaps[i] = make(map[string]float64, 12)
		}
	}
	return s
}

// run simulates every session of this shard. Admission is by index
// order whenever a pooled slot is free; since sessions are independent
// this changes nothing about any session's outcome, it only bounds how
// many are in flight (memory O(MaxLive)).
func (s *shard) run() {
	next := uint64(s.id) // next session index owned by this shard
	total := uint64(s.cfg.Sessions)
	stride := uint64(s.cfg.Shards)
	live := 0
	for {
		for len(s.free) > 0 && next < total {
			slot := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			sess := &s.slots[slot]
			sess.reset(s.cfg, next)
			s.wake(sess.firstEvent(), slot)
			next += stride
			live++
			if live > s.maxLive {
				s.maxLive = live
			}
		}
		if s.heap.Len() == 0 {
			break
		}
		ev := s.heap.Pop()
		sess := &s.slots[ev.Slot]
		if at := sess.step(time.Duration(ev.At)); at > 0 {
			s.wake(at, ev.Slot)
			continue
		}
		s.retire(ev.Slot)
		s.free = append(s.free, ev.Slot)
		live--
	}
	s.flushDiag()
}

// wake queues slot's next step at t. A slot has at most one pending
// wake-up, so (t, slot) keys are distinct and ordering by time with the
// slot as tie-break makes pop order fully deterministic.
func (s *shard) wake(t time.Duration, slot int32) {
	s.heap.Push(eventq.Entry{At: int64(t), Seq: uint64(slot), Slot: slot})
}

// retire summarizes a finished slot and feeds it to the aggregator —
// directly, or through the serve engine's diagnosis batch when a model
// is attached.
func (s *shard) retire(slot int32) {
	sess := &s.slots[slot]
	s.completed++
	if s.cfg.Engine == nil {
		var sum SessionSummary
		sess.summarize(&sum)
		s.agg.Observe(&sum, false)
		if s.cfg.Progress != nil {
			s.cfg.Progress(1)
		}
		return
	}
	i := len(s.batchReqs)
	fv := s.batchMaps[i]
	sess.features(fv)
	var sum SessionSummary
	sess.summarize(&sum)
	s.batchReqs = append(s.batchReqs, serve.Request{
		ID:       strconv.FormatUint(sum.Index, 10),
		Features: fv,
	})
	s.batchSums = append(s.batchSums, sum)
	if len(s.batchReqs) == cap(s.batchReqs) {
		s.flushDiag()
	}
}

// flushDiag sends the pending batch through the engine and aggregates
// the diagnosed summaries. Results land per-index, so batch contents
// and engine sharding cannot reorder anything observable.
func (s *shard) flushDiag() {
	if s.cfg.Engine == nil || len(s.batchReqs) == 0 {
		return
	}
	results := s.cfg.Engine.DiagnoseBatch(s.batchReqs)
	for i := range results {
		sum := &s.batchSums[i]
		if results[i].Err == "" {
			sum.Cause = CauseIndex(results[i].Cause)
		} else {
			sum.Cause = CauseUnknown
		}
		s.agg.Observe(sum, true)
	}
	if s.cfg.Progress != nil {
		s.cfg.Progress(len(s.batchReqs))
	}
	s.batchReqs = s.batchReqs[:0]
	s.batchSums = s.batchSums[:0]
}
