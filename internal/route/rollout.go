package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"vqprobe/internal/rowcodec"
)

// StageResult records what happened to one replica during a rollout.
type StageResult struct {
	Replica string `json:"replica"`
	Outcome string `json:"outcome"` // canary | reloaded | skipped_down | failed
	Hash    string `json:"hash,omitempty"`
	Error   string `json:"error,omitempty"`
}

// RolloutReport is the full account of one staged rollout attempt.
type RolloutReport struct {
	Status string        `json:"status"` // complete | held
	Reason string        `json:"reason,omitempty"`
	Canary string        `json:"canary,omitempty"`
	Hash   string        `json:"hash,omitempty"`
	Stages []StageResult `json:"stages"`
}

// ErrRolloutInProgress reports a rollout attempted while another holds
// the coordinator lock.
var ErrRolloutInProgress = errors.New("route: a staged rollout is already in progress")

// Rollout pushes a new model across the fleet in stages:
//
//  1. Refresh every replica's health; a Degraded replica anywhere
//     holds the rollout — it is already serving a last-good model, and
//     moving the rest of the fleet would widen the version split.
//  2. Reload the canary (first live replica in config order) and
//     verify its post-reload /healthz: status ok and, when expectHash
//     is given, the advertised snapshot hash matches.
//  3. Send canary traffic through the reloaded replica's /diagnose and
//     require a clean classification.
//  4. Fan out sequentially to the remaining live replicas, verifying
//     after each reload that its hash equals the canary's — a mismatch
//     is a split brain (replicas loading different artifacts) and
//     halts the fan-out where it stands.
//
// Down replicas are skipped (they re-join on their next successful
// probe and must be rolled again by the operator — the report says so).
// Any hold increments vqroute_rollouts_held_total and leaves the fleet
// as the failure found it; nothing is rolled back automatically because
// replicas keep serving their last-good snapshot either way.
func (rt *Router) Rollout(ctx context.Context, expectHash string) (RolloutReport, error) {
	if !rt.rolloutMu.TryLock() {
		return RolloutReport{}, ErrRolloutInProgress
	}
	defer rt.rolloutMu.Unlock()

	rep := RolloutReport{Status: "held"}
	held := func(reason string) (RolloutReport, error) {
		rep.Reason = reason
		rt.obs.rolloutsHeld.Inc()
		rt.logf("rollout held", "reason", reason)
		return rep, nil
	}

	// Stage 0: fresh fleet view. Routing state may be minutes stale
	// relative to a deliberate model push.
	rt.PollHealth(ctx)
	var canary *replica
	for _, r := range rt.reps {
		switch State(r.state.Load()) {
		case Degraded:
			r.mu.Lock()
			why := r.lastErr
			r.mu.Unlock()
			return held(fmt.Sprintf("replica %s is degraded (%s); fix or eject it before rolling out", r.url, why))
		case Healthy:
			if canary == nil {
				canary = r
			}
		}
	}
	if canary == nil {
		return held("no healthy replica to canary")
	}
	rep.Canary = canary.url

	// Stage 1: canary reload + hash verification.
	hash, err := rt.reloadOne(ctx, canary)
	if err != nil {
		rep.Stages = append(rep.Stages, StageResult{Replica: canary.url, Outcome: "failed", Error: err.Error()})
		return held(fmt.Sprintf("canary %s reload failed: %v", canary.url, err))
	}
	if expectHash != "" && hash != expectHash {
		rep.Stages = append(rep.Stages, StageResult{Replica: canary.url, Outcome: "failed", Hash: hash})
		return held(fmt.Sprintf("canary %s loaded hash %s, expected %s", canary.url, hash, expectHash))
	}
	rep.Hash = hash

	// Stage 2: canary traffic. A model that loads but cannot classify
	// must not reach the rest of the fleet.
	if err := rt.canaryProbe(ctx, canary); err != nil {
		rep.Stages = append(rep.Stages, StageResult{Replica: canary.url, Outcome: "failed", Hash: hash, Error: err.Error()})
		return held(fmt.Sprintf("canary %s traffic probe failed: %v", canary.url, err))
	}
	rep.Stages = append(rep.Stages, StageResult{Replica: canary.url, Outcome: "canary", Hash: hash})
	rt.logf("rollout canary verified", "replica", canary.url, "hash", hash)

	// Stage 3: sequential fan-out with the split-brain guard.
	for _, r := range rt.reps {
		if r == canary {
			continue
		}
		if State(r.state.Load()) == Down {
			rep.Stages = append(rep.Stages, StageResult{Replica: r.url, Outcome: "skipped_down"})
			continue
		}
		h, err := rt.reloadOne(ctx, r)
		if err != nil {
			rep.Stages = append(rep.Stages, StageResult{Replica: r.url, Outcome: "failed", Error: err.Error()})
			return held(fmt.Sprintf("fan-out to %s failed: %v", r.url, err))
		}
		if h != hash {
			rep.Stages = append(rep.Stages, StageResult{Replica: r.url, Outcome: "failed", Hash: h})
			return held(fmt.Sprintf("split brain: %s loaded hash %s, canary has %s", r.url, h, hash))
		}
		rep.Stages = append(rep.Stages, StageResult{Replica: r.url, Outcome: "reloaded", Hash: h})
		rt.logf("rollout fan-out step", "replica", r.url, "hash", h)
	}

	rep.Status = "complete"
	rep.Reason = ""
	rt.obs.rollouts.Inc()
	rt.logf("rollout complete", "hash", hash, "stages", len(rep.Stages))
	return rep, nil
}

// reloadOne POSTs /-/reload to a replica and verifies the post-reload
// /healthz, returning the snapshot hash now being served.
func (rt *Router) reloadOne(ctx context.Context, rep *replica) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/-/reload", nil)
	if err != nil {
		return "", err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.noteFailure(rep, err.Error())
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		// The replica keeps its last-good model and reports degraded on
		// its own /healthz; fold that into our view immediately.
		rt.pollOne(ctx, rep)
		return "", fmt.Errorf("reload HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	hb, err := rt.fetchHealthz(ctx, rep)
	if err != nil {
		rt.noteFailure(rep, err.Error())
		return "", fmt.Errorf("post-reload healthz: %w", err)
	}
	if hb.Status != "ok" {
		rt.noteDegraded(rep, hb.Model.SnapshotHash, hb.LastReloadError)
		return "", fmt.Errorf("post-reload status %q: %s", hb.Status, hb.LastReloadError)
	}
	rt.noteHealthy(rep, hb.Model.SnapshotHash)
	return hb.Model.SnapshotHash, nil
}

// canaryProbe pushes Config.CanaryBody through the replica's /diagnose
// and requires every answer row to classify without error.
func (rt *Router) canaryProbe(ctx context.Context, rep *replica) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/diagnose", strings.NewReader(rt.cfg.CanaryBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("canary HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	sc, release := rowcodec.NewScanner(resp.Body)
	defer release()
	rows := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rows++
		var row struct {
			Err string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("canary row %d: unparseable answer: %v", rows, err)
		}
		if row.Err != "" {
			return fmt.Errorf("canary row %d failed: %s", rows, row.Err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("canary answered no rows")
	}
	return nil
}

// handleRollout triggers a staged rollout: POST /-/rollout[?hash=...].
// 200 with the report on completion, 409 with the report when held or
// when another rollout is already running.
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to /-/rollout", http.StatusMethodNotAllowed)
		return
	}
	report, err := rt.Rollout(r.Context(), r.URL.Query().Get("hash"))
	w.Header().Set("Content-Type", "application/json")
	switch {
	case err != nil:
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]string{"status": "busy", "reason": err.Error()})
	case report.Status != "complete":
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(report)
	default:
		json.NewEncoder(w).Encode(report)
	}
}
