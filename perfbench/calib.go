package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Host-speed calibration.
//
// On a shared VM the same work can take twice as long in one run as in
// the next, and it changes speed within a run too: other tenants take
// the host's caches, memory bandwidth and hyperthread siblings, and the
// hypervisor steals time. A run cannot escape that, but it can measure
// it. Between all of its measurements the benchmark runs short bursts of
// a fixed calibration kernel — benchmark-owned code that no change to
// the program can make faster or slower — on as many goroutines as the
// load uses, and times both the kernel's throughput and its single
// units. Each measurement is then brought to the reference speed by the
// slowdown at the time it was taken: the kernel's median time in the
// bursts nearest to it, over its reference time. Times are divided by
// the slowdown, rates multiplied. The report line keeps the raw figures
// and the run's median slowdowns.

// refUnitNs is the calibration kernel's time per unit on the reference
// machine, a quiet 2-vCPU Intel Xeon VM with go1.24 running two
// goroutines. Without host pauses its throughput per unit and its median
// single unit are the same.
const refUnitNs = 22_500

// speedKind says how a host slowdown shows in an end-to-end figure.
type speedKind int

const (
	// aggregate is a rate, or a time long enough to take in the host's
	// pauses: it moves with the kernel's throughput.
	aggregate speedKind = iota
	// perOperation is the time of a sub-millisecond operation, which the
	// host's pauses rarely reach: it moves with the kernel's median
	// single unit.
	perOperation
)

// burst is one calibration sample.
type burst struct {
	at      time.Time // the burst's middle
	perUnit float64   // ns per unit per goroutine, pauses included
	unitP50 float64   // median single-unit ns
}

func (b burst) slowdown(kind speedKind) float64 {
	if kind == perOperation {
		return b.unitP50 / refUnitNs
	}
	return b.perUnit / refUnitNs
}

// calibrator collects the kernel's speed over a run.
type calibrator struct {
	workers int
	bursts  []burst
}

// sample runs the kernel on every worker for about d. It first runs a
// garbage collection to its end, so that no cycle the program started
// takes CPU from the burst.
func (c *calibrator) sample(d time.Duration) {
	runtime.GC()
	units := make([][]float64, c.workers)
	for w := range units {
		units[w] = make([]float64, 0, 1<<14)
	}
	var wg sync.WaitGroup
	start := now()
	for w := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := newCalibKernel()
			for since(start) < d {
				t0 := now()
				k.unit()
				units[w] = append(units[w], float64(since(t0).Nanoseconds()))
			}
		}()
	}
	wg.Wait()
	el := since(start)
	var all []float64
	for _, u := range units {
		all = append(all, u...)
	}
	c.bursts = append(c.bursts, burst{at: start.Add(el / 2),
		perUnit: float64(el.Nanoseconds()) * float64(c.workers) / float64(len(all)), unitP50: median(all)})
}

// nearBursts is how many bursts around a moment give its slowdown: a
// single 100 ms burst can fall on a short stall that the measurement
// beside it, which lasts longer, mostly missed.
const nearBursts = 7

// slowdownAt is the slowdown at t: the median over the nearBursts bursts
// nearest to it in the run's order, or over all bursts when there are
// fewer; 1 with no burst.
func (c *calibrator) slowdownAt(t time.Time, kind speedKind) float64 {
	bs := c.bursts
	i := sort.Search(len(bs), func(i int) bool { return !bs[i].at.Before(t) })
	lo := max(0, min(i-nearBursts/2, len(bs)-nearBursts))
	return medianSlowdown(bs[lo:min(len(bs), lo+nearBursts)], kind)
}

// medianSlowdown is the median slowdown over bursts, 1 with none.
func medianSlowdown(bs []burst, kind speedKind) float64 {
	if len(bs) == 0 {
		return 1
	}
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = b.slowdown(kind)
	}
	return median(xs)
}

// timed is measured times or rates that stand for one moment of the
// run: a sample, or the latencies of one load window.
type timed struct {
	at time.Time
	vs []float64
}

// one is a single measured figure taken over [start, start+d].
func one(v float64, start time.Time, d time.Duration) timed {
	return timed{at: start.Add(d / 2), vs: []float64{v}}
}

// atReference brings measured figures to the reference speed, each by
// the slowdown when it was taken: times are divided by it, rates
// (rate true) multiplied.
func (c *calibrator) atReference(xs []timed, kind speedKind, rate bool) []float64 {
	var out []float64
	for _, x := range xs {
		s := c.slowdownAt(x.at, kind)
		if !rate {
			s = 1 / s
		}
		for _, v := range x.vs {
			out = append(out, v*s)
		}
	}
	return out
}

// values lists the measured figures as they are.
func values(xs []timed) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x.vs...)
	}
	return out
}

// calibKernel is the calibration work: text encoding and decoding of a
// flat feature map, a sort and a hash — the kind of work the serving and
// training paths do, in code that belongs to the benchmark and the Go
// standard library only. A unit allocates nothing, so its speed does not
// hang on the program's heap or on where its garbage collector stands.
type calibKernel struct {
	keys  []string
	vals  []float64
	index map[string]int
	buf   []byte
	xs    []float64
	sink  float64
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{index: map[string]int{}, buf: make([]byte, 0, 4096), xs: make([]float64, 256)}
	for i := 0; i < 48; i++ {
		key := "feature_" + strconv.Itoa(i*7919)
		k.keys = append(k.keys, key)
		k.vals = append(k.vals, float64(i)*1.37e3+0.123456789*float64(i))
		k.index[key] = i
	}
	return k
}

func (k *calibKernel) unit() {
	buf := k.buf[:0]
	for i, key := range k.keys {
		buf = append(buf, '"')
		buf = append(buf, key...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendFloat(buf, k.vals[i], 'g', -1, 64)
		buf = append(buf, ',')
	}
	k.buf = buf
	// Decode: each "key":value pair back into its slot.
	for i := 0; i < len(buf); {
		j := i + 1
		for buf[j] != '"' {
			j++
		}
		slot := k.index[string(buf[i+1:j])]
		e := j + 2
		for buf[e] != ',' {
			e++
		}
		v, _ := strconv.ParseFloat(string(buf[j+2:e]), 64)
		k.xs[slot] = v
		i = e + 1
	}
	for i := len(k.keys); i < len(k.xs); i++ {
		k.xs[i] = k.xs[i%len(k.keys)] * float64((i*31)%17)
	}
	slices.Sort(k.xs)
	sum := sha256.Sum256(buf)
	k.sink += k.xs[len(k.xs)/2] + float64(sum[0])
}
