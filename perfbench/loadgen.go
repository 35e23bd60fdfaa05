package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request k and returns how many of its rows were
// answered wrongly, or an error when the request failed as a whole.
type sendFunc func(k int) (badRows int, err error)

// missed is the latency recorded for a failed or unsent request: a
// request that fails counts as missing any latency limit.
const missed = time.Hour

// openResult is one open-loop phase.
type openResult struct {
	lat        []time.Duration // per request, from its due time; missed when it failed
	late       []time.Duration // how late the generator dispatched each request
	failedReqs int
	badRows    int
}

// openLoop offers n requests over dur at the arrival times of a Poisson
// process conditioned on n arrivals (so every seed offers exactly the
// phase's rate), sent by workers goroutines over at most as many
// connections. Latency counts from each request's due time, so a stall
// also charges the requests queued behind it.
func openLoop(n int, dur time.Duration, rng *rand.Rand, workers int, send sendFunc) openResult {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	res := openResult{lat: make([]time.Duration, n), late: make([]time.Duration, 0, n)}
	bad := make([]int, workers)
	failed := make([]int, workers)
	// Sized to n so the dispatcher never blocks on a busy connection.
	queue := make(chan int, n)
	base := now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queue {
				b, err := send(k)
				res.lat[k] = since(base) - dues[k]
				if err != nil || b > 0 {
					res.lat[k] = missed
					failed[w]++
					bad[w] += b
				}
			}
		}(w)
	}
	for k, due := range dues {
		if d := due - since(base); d > 0 {
			sleep(d)
		}
		res.late = append(res.late, since(base)-due)
		queue <- k
	}
	close(queue)
	wg.Wait()
	for w := 0; w < workers; w++ {
		res.failedReqs += failed[w]
		res.badRows += bad[w]
	}
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	lat        []time.Duration // per request, in no particular order; missed when it failed
	done       []time.Duration // completion offsets from the phase start
	failedReqs int
	badRows    int
	elapsed    time.Duration
}

// closedLoop runs workers clients, each sending its next request as
// soon as the previous one is answered, for dur. Request indices are
// handed out in order from first.
func closedLoop(dur time.Duration, workers, first int, send sendFunc) closedResult {
	var next atomic.Int64
	next.Store(int64(first))
	type local struct {
		lat, done   []time.Duration
		failed, bad int
	}
	locals := make([]local, workers)
	base := now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l *local) {
			defer wg.Done()
			for since(base) < dur {
				k := int(next.Add(1) - 1)
				t0 := now()
				if b, err := send(k); err != nil || b > 0 {
					l.failed++
					l.bad += b
					l.lat = append(l.lat, missed)
					continue
				}
				l.lat = append(l.lat, since(t0))
				l.done = append(l.done, since(base))
			}
		}(&locals[w])
	}
	wg.Wait()
	res := closedResult{elapsed: since(base)}
	for _, l := range locals {
		res.lat = append(res.lat, l.lat...)
		res.done = append(res.done, l.done...)
		res.failedReqs += l.failed
		res.badRows += l.bad
	}
	return res
}

// windowRates splits a closed-loop phase into equal windows and returns
// the completion rate of each.
func windowRates(done []time.Duration, elapsed time.Duration, windows int) []float64 {
	counts := make([]float64, windows)
	w := elapsed / time.Duration(windows)
	for _, d := range done {
		i := int(d / w)
		if i >= windows {
			i = windows - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}
