package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssMeter measures the resident-set high-water mark of a run's phases.
// begin returns the heap's free pages to the OS and resets the kernel's
// VmHWM (writing 5 to /proc/self/clear_refs), so a phase's peak does not
// inherit an earlier phase's; end folds VmHWM into the phase's peak.
// Where the kernel refuses the reset, every phase reads the process-wide
// peak and reset is false.
type rssMeter struct {
	peaks map[string]float64 // MiB
	reset bool
}

func newRSSMeter() *rssMeter { return &rssMeter{peaks: map[string]float64{}, reset: true} }

func (m *rssMeter) begin() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		m.reset = false
	}
}

func (m *rssMeter) end(phase string) { m.peaks[phase] = max(m.peaks[phase], peakRSSMB()) }

// peak is the highest peak among the given phases.
func (m *rssMeter) peak(phases ...string) float64 {
	p := 0.0
	for _, ph := range phases {
		p = max(p, m.peaks[ph])
	}
	return p
}

// note puts every phase's peak in the report, so it shows which phase
// set max_rss_mb.
func (m *rssMeter) note(rec *recorder) {
	rec.notes["rss_peak_mb"] = m.peaks
	rec.notes["rss_peak_reset"] = m.reset
}

// peakRSSMB is the process's resident-set high-water mark in MiB: VmHWM
// from /proc/self/status, or the lifetime peak from getrusage.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta measures the runtime's allocation and GC activity over a
// phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the allocations, allocated MiB and GC cycles since start.
func (m *memDelta) stop() (mallocs uint64, allocMB float64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs,
		float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20),
		after.NumGC - m.before.NumGC
}
