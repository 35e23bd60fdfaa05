package vqprobe_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"
	"time"

	"vqprobe"
	"vqprobe/internal/faults"
	"vqprobe/internal/qoe"
	"vqprobe/internal/testbed"
	"vqprobe/internal/video"
)

// goldenSimFingerprint is the SHA-256 of every output byte the three
// session generators and one traced session produce for the seeds in
// TestSimulationFingerprint. It pins the simulator's event order: any
// change to the (at, seq) order in which events fire, or to the order
// in which they draw from the RNG, moves some record, MOS, timeline
// entry or trace line and changes the hash.
//
// Only a deliberate change of simulated behaviour may update it, and
// EXPERIMENTS.md must be regenerated in the same change.
const goldenSimFingerprint = "a94ba726ec9e3f99fb71ae5e96519b2fe01d4b35a65fa015557d4aa1d8bdc5f5"

func hashSessions(h hash.Hash, tag string, sessions []vqprobe.Session) {
	for i, s := range sessions {
		fmt.Fprintf(h, "%s[%d] mos=%x label=%v spec=%+v extra=%+v\n",
			tag, i, math.Float64bits(s.MOS), s.Label, s.Spec, s.Extra)
		fmt.Fprintf(h, "report=%+v\nctx=%v\n", s.Report, s.Context)
		for _, vp := range vqprobe.AllVantagePoints {
			rec, ok := s.Records[vp]
			if !ok {
				continue
			}
			// fmt prints maps in sorted key order; %x of the float bits
			// keeps the hash exact where %v would round.
			bits := make(map[string]uint64, len(rec))
			for k, v := range rec {
				bits[k] = math.Float64bits(v)
			}
			fmt.Fprintf(h, "%s=%x\n", vp, bits)
		}
		for _, ev := range s.Timeline {
			fmt.Fprintf(h, "ev %d %s %s\n", ev.At, ev.Kind, ev.Detail)
		}
	}
}

func simFingerprint(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, seed := range []int64{1, 7, 2015} {
		cfg := vqprobe.SimulationConfig{Sessions: 10, Seed: seed}
		hashSessions(h, fmt.Sprintf("controlled/%d", seed), vqprobe.SimulateControlled(cfg))
		hashSessions(h, fmt.Sprintf("realworld/%d", seed), vqprobe.SimulateRealWorld(cfg))
		hashSessions(h, fmt.Sprintf("wild/%d", seed), vqprobe.SimulateWild(cfg))
	}
	// One traced session: the trace records every enqueue, drop, retry
	// and TCP state change with its virtual timestamp, so it catches a
	// reordering even where the aggregated records would hide it.
	r := testbed.RunSession(testbed.SessionConfig{
		Opts: testbed.Options{Seed: 3, BackgroundScale: 0.4, ServerLoadMean: 0.1,
			InstrumentRouter: true, InstrumentServer: true},
		Spec:     faults.Spec{Fault: qoe.LANCongestion, Intensity: 0.6},
		Clip:     video.Clip{ID: 1, Quality: video.SD, Bitrate: 1e6, Duration: 20 * time.Second, FPS: 30},
		TraceBuf: 1 << 20,
	})
	hashSessions(h, "traced", []vqprobe.Session{r})
	if err := r.Trace.WriteNDJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulationFingerprint fails loudly when the simulator's output
// drifts, instead of letting EXPERIMENTS.md drift silently. The golden
// hash was captured on amd64; other architectures may fuse
// multiply-adds and legitimately differ in the last float bit.
func TestSimulationFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprint is captured on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	if got := simFingerprint(t); got != goldenSimFingerprint {
		t.Fatalf("simulation fingerprint %s, want %s: the simulator's event or RNG order changed", got, goldenSimFingerprint)
	}
}
