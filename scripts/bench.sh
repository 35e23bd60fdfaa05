#!/usr/bin/env bash
# bench.sh — training-path, fleet, and inference performance harness.
#
#   scripts/bench.sh run     full-length benchmark run; rewrites the
#                            committed baselines reports/BENCH_PR3.json
#                            (training path), reports/BENCH_PR6.json
#                            (fleet sessions/sec), reports/BENCH_PR8.json
#                            (batch/forest inference + snapshot load),
#                            reports/BENCH_PR9.json (self-lint cold vs
#                            cached-warm), reports/BENCH_PR10.json
#                            (router throughput + failover latency),
#                            reports/BENCH_PR12.json (simulator core) and
#                            reports/BENCH_PR13.json (online row codec)
#   scripts/bench.sh check   quick run compared against the committed
#                            baselines; fails on a gross regression
#                            (the CI smoke guard)
#
# The training benchmark set covers feature construction, FCBF
# selection, C4.5 tree building, prediction, and 10-fold
# cross-validation. The fleet benchmark runs one b.N-session fleet so
# ns/op is ns per simulated session; bench_report.py derives the
# sessions/sec figure recorded in the baseline. The inference set times
# the serving hot path — scalar vs batch single-tree, batch forest
# (serial + parallel), the pointer-forest vector path, and binary
# snapshot load — with one iteration = one prediction, so
# bench_report.py derives predictions_per_sec and snapshot_load_ms
# directly (see docs/PERFORMANCE.md for the methodology). The router
# set drives full /diagnose round trips through an in-process vqroute
# handler over loopback replicas: rows/s is proxy throughput, and the
# failover bench's ns/op is the detect-and-re-route latency for a
# batch whose sticky replica rejects it (docs/ROUTING.md). The
# simulator set times the packet-level testbed from the event core up:
# one packet through two links and a router, one 1 MB TCP transfer,
# and one fully labelled video session (docs/PERFORMANCE.md). The row
# codec set decodes one real full probe row (358 keys, ~13 KB) per iteration,
# through the fast path and through encoding/json, and drives 32-row
# batches of such rows through the router in front of stub replicas
# that do not decode, so the router's own per-row cost shows
# (docs/PERFORMANCE.md, "The online row codec").
#
# Every report records the host it ran on under "_env" (nproc,
# GOMAXPROCS, Go version, CPU); `compare` ignores that key.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='BenchmarkFeatureConstruction|BenchmarkFCBFSelection|BenchmarkC45Training|BenchmarkC45Prediction|BenchmarkCrossValidation'
BASELINE=reports/BENCH_PR3.json
FLEET_BENCH='BenchmarkFleetSessions'
FLEET_BASELINE=reports/BENCH_PR6.json
INFER_BENCHES='BenchmarkPredictRowScalar|BenchmarkPredictBatch|BenchmarkForestPredictBatch|BenchmarkForestPredictBatchParallel|BenchmarkForestPredictVector|BenchmarkSnapshotLoad'
INFER_BASELINE=reports/BENCH_PR8.json
LINT_BENCHES='BenchmarkSelfLintCold|BenchmarkSelfLintWarm'
LINT_BASELINE=reports/BENCH_PR9.json
ROUTE_BENCHES='BenchmarkRouterDiagnose|BenchmarkRouterFailover'
ROUTE_BASELINE=reports/BENCH_PR10.json
SIM_BENCHES='BenchmarkSimnetForwarding|BenchmarkTCPTransfer|BenchmarkSessionSimulation'
SIM_BASELINE=reports/BENCH_PR12.json
CODEC_BENCHES='BenchmarkDecodeRow|BenchmarkDecodeRowJSON'
CODEC_ROUTE_BENCHES='BenchmarkRouterDiagnoseProbeRows'
CODEC_BASELINE=reports/BENCH_PR13.json
MODE="${1:-run}"

run_bench() { # $1: -benchtime value
  go test -run '^$' -bench "^(${BENCHES})\$" -benchmem -benchtime "$1" .
}

run_fleet_bench() { # $1: -benchtime value (use a fixed Nx: one iteration = one session)
  go test -run '^$' -bench "^${FLEET_BENCH}\$" -benchmem -benchtime "$1" ./internal/fleet/
}

run_infer_bench() { # $1: -benchtime value (duration-based: iteration counts span 5 orders of magnitude)
  go test -run '^$' -bench "^(${INFER_BENCHES})\$" -benchmem -benchtime "$1" ./internal/ml/c45/
}

run_lint_bench() { # always 1x: one cold iteration type-checks the whole module (~13s)
  go test -run '^$' -bench "^(${LINT_BENCHES})\$" -benchmem -benchtime 1x ./internal/lint/
}

run_route_bench() { # $1: -benchtime value (duration-based: one iteration = one HTTP round trip, ~0.1–1 ms)
  go test -run '^$' -bench "^(${ROUTE_BENCHES})\$" -benchmem -benchtime "$1" ./internal/route/
}

run_sim_bench() { # $1: -benchtime value (duration-based: ~0.5 µs to ~10 ms per iteration)
  go test -run '^$' -bench "^(${SIM_BENCHES})\$" -benchmem -benchtime "$1" .
}

run_codec_bench() { # $1: -benchtime value (duration-based: ~15 µs to ~5 ms per iteration)
  go test -run '^$' -bench "^(${CODEC_BENCHES})\$" -benchmem -benchtime "$1" ./internal/serve/
  go test -run '^$' -bench "^(${CODEC_ROUTE_BENCHES})\$" -benchmem -benchtime "$1" ./internal/route/
}

case "$MODE" in
run)
  out="$(run_bench 1s)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | python3 scripts/bench_report.py parse >"$BASELINE"
  echo "wrote $BASELINE"
  fleet_out="$(run_fleet_bench 200000x)"
  printf '%s\n' "$fleet_out"
  printf '%s\n' "$fleet_out" | python3 scripts/bench_report.py parse >"$FLEET_BASELINE"
  echo "wrote $FLEET_BASELINE"
  infer_out="$(run_infer_bench 1s)"
  printf '%s\n' "$infer_out"
  printf '%s\n' "$infer_out" | python3 scripts/bench_report.py parse >"$INFER_BASELINE"
  echo "wrote $INFER_BASELINE"
  lint_out="$(run_lint_bench)"
  printf '%s\n' "$lint_out"
  printf '%s\n' "$lint_out" | python3 scripts/bench_report.py parse >"$LINT_BASELINE"
  echo "wrote $LINT_BASELINE"
  route_out="$(run_route_bench 1s)"
  printf '%s\n' "$route_out"
  printf '%s\n' "$route_out" | python3 scripts/bench_report.py parse >"$ROUTE_BASELINE"
  echo "wrote $ROUTE_BASELINE"
  sim_out="$(run_sim_bench 1s)"
  printf '%s\n' "$sim_out"
  printf '%s\n' "$sim_out" | python3 scripts/bench_report.py parse >"$SIM_BASELINE"
  echo "wrote $SIM_BASELINE"
  codec_out="$(run_codec_bench 1s)"
  printf '%s\n' "$codec_out"
  printf '%s\n' "$codec_out" | python3 scripts/bench_report.py parse >"$CODEC_BASELINE"
  echo "wrote $CODEC_BASELINE"
  ;;
check)
  # 100x: enough iterations to keep the sub-µs benches out of warmup
  # noise (5x flaked BenchmarkC45Prediction past the 4x guard) while
  # staying a quick smoke.
  out="$(run_bench 100x)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$BASELINE"
  fleet_out="$(run_fleet_bench 20000x)"
  printf '%s\n' "$fleet_out"
  printf '%s\n' "$fleet_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$FLEET_BASELINE"
  # Duration-based benchtime: the inference set spans ~40 ns
  # (PredictBatch) to ~1 ms (SnapshotLoad) per iteration, so no fixed
  # Nx suits all of them.
  infer_out="$(run_infer_bench 100ms)"
  printf '%s\n' "$infer_out"
  printf '%s\n' "$infer_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$INFER_BASELINE"
  lint_out="$(run_lint_bench)"
  printf '%s\n' "$lint_out"
  printf '%s\n' "$lint_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$LINT_BASELINE"
  route_out="$(run_route_bench 100ms)"
  printf '%s\n' "$route_out"
  printf '%s\n' "$route_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$ROUTE_BASELINE"
  sim_out="$(run_sim_bench 200ms)"
  printf '%s\n' "$sim_out"
  printf '%s\n' "$sim_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$SIM_BASELINE"
  codec_out="$(run_codec_bench 200ms)"
  printf '%s\n' "$codec_out"
  printf '%s\n' "$codec_out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$CODEC_BASELINE"
  ;;
*)
  echo "usage: scripts/bench.sh [run|check]" >&2
  exit 2
  ;;
esac
