#!/usr/bin/env bash
# Runs the performance suite: builds release, runs the perfsuite binary
# (decode TLB vs raw decode, flat vs hashed controller, compiled vs
# per-burst hammer patterns, compiled trace replay cold and warm vs the
# uncompiled figure engine, fleet incremental proofs, and the per-ACT
# mitigation-hook overhead rows), and leaves the
# measurements in BENCH_perfsuite.json plus a telemetry snapshot in
# TELEMETRY_perfsuite.json at the repo root. Every row — including the
# figure4_quick / figure4_compiled trace-compiler rows and the
# mitigation_* hook rows — is gated against the previous run's
# optimized_ns_per_op. The full head-to-head defense comparison
# (ARENA_report.json) is regenerated separately with
# `cargo run --release -p bench --bin arena`.
# Criterion microbenches can be run separately with
# `cargo bench --workspace`.
#
# If a BENCH_perfsuite.json from a previous run exists, it becomes the
# regression baseline: the perfsuite exits non-zero when any measure is
# more than SILOZ_BENCH_TOLERANCE percent slower (default 5%).
#
# Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench --bin perfsuite

# Snapshot the previous results (if any) and gate the new run against them.
if [[ -f BENCH_perfsuite.json ]]; then
  cp BENCH_perfsuite.json BENCH_perfsuite.baseline.json
  export SILOZ_BENCH_BASELINE="$(pwd)/BENCH_perfsuite.baseline.json"
  export SILOZ_BENCH_TOLERANCE="${SILOZ_BENCH_TOLERANCE:-5}"
  echo "gating against baseline: $SILOZ_BENCH_BASELINE (tolerance ${SILOZ_BENCH_TOLERANCE}%)"
fi

./target/release/perfsuite

# Thousands-of-hosts smoke: the indexed scheduler must hold a 2048-host
# fleet clean (0 escapes, 0 violations) under soak-density churn. Writes
# CLUSTER_soak_scale.json. Set SILOZ_SCALE_HOSTS to change the fleet size
# (e.g. 4096 for the full-scale tier) or 0 to skip the smoke.
SILOZ_SCALE_HOSTS="${SILOZ_SCALE_HOSTS:-2048}"
if [[ "$SILOZ_SCALE_HOSTS" != "0" ]]; then
  cargo build --release -p bench --bin cluster_soak
  echo
  echo "cluster scale smoke: ${SILOZ_SCALE_HOSTS} hosts"
  ./target/release/cluster_soak --scale "$SILOZ_SCALE_HOSTS"
fi

echo
echo "results:   $(pwd)/BENCH_perfsuite.json"
echo "telemetry: $(pwd)/TELEMETRY_perfsuite.json"
