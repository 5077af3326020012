#!/usr/bin/env bash
# Parallel execution must be byte-identical to its single-threaded reference
# execution. Two families of lanes:
#
# Sweep lanes (cells run on private Simulators and merge in cell order):
#   * bench_fig3_trace_sim  --jobs 1  vs  --jobs 8   (small workload)
#   * bench_ext_failure     --jobs 1  vs  --jobs 8   (fault-injection sweep:
#     scripted node crashes + transient I/O faults with a fixed fault seed)
#   * ckpt-sim sweep        --parallel 1 vs --parallel 8
#
# Sharded lanes (ONE run drained on worker threads; the shard count only
# sets the worker count, never an ordering key):
#   * ckpt-sim --shards=1 vs --shards=4 for all three preemption policies,
#     comparing stdout plus the exported metrics + audit artifacts
#   * bench_scale --shards=1 vs --shards=4 (streaming sharded driver)
#
# YARN observability lane (the RM/AM/NM front-end): bench_fig8_yarn and
# bench_fig10_yarn_adaptive with CKPT_OBS=1 vs without. Recording decisions
# must never change one.
#
# CKPT_SWEEP_NO_CLAMP keeps --jobs/--parallel at their literal values on
# small machines — these lanes exist precisely to exercise multi-threaded
# execution, so the core-count clamp must not quietly reduce them to the
# serial path.
#
# Usage: scripts/check_determinism.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

export CKPT_SWEEP_NO_CLAMP=1

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

fail=0

compare() {
  local name="$1" ref="$2" par="$3"
  if cmp -s "$ref" "$par"; then
    echo "check_determinism: $name identical"
  else
    echo "check_determinism: FAIL: $name differs from its reference run:"
    diff "$ref" "$par" | head -20
    fail=1
  fi
}

# Drop wall-clock-dependent gauges (self.* profile timers,
# process.peak_rss_bytes) from a metrics JSON so the rest byte-diffs.
normalize_metrics() {
  python3 "$repo_root/scripts/normalize_metrics.py" "$1"
}

"$build_dir/bench/bench_fig3_trace_sim" --jobs 1 150 \
  > "$work_dir/fig3.serial.txt"
"$build_dir/bench/bench_fig3_trace_sim" --jobs 8 150 \
  > "$work_dir/fig3.parallel.txt"
compare "bench_fig3_trace_sim" \
  "$work_dir/fig3.serial.txt" "$work_dir/fig3.parallel.txt"

# Fault lane: every cell owns a private FaultInjector forked from the fixed
# fault seed, so injected crashes and I/O faults replay identically at any
# worker count.
"$build_dir/bench/bench_ext_failure" --jobs 1 150 \
  > "$work_dir/ext_failure.serial.txt"
"$build_dir/bench/bench_ext_failure" --jobs 8 150 \
  > "$work_dir/ext_failure.parallel.txt"
compare "bench_ext_failure (fault sweep)" \
  "$work_dir/ext_failure.serial.txt" "$work_dir/ext_failure.parallel.txt"

# Index lane: the O(log n) feasibility index must choose exactly the node
# the linear scan chooses, so the scale bench's deterministic table is
# byte-identical with the index on and off (only the header names the mode).
"$build_dir/bench/bench_scale" --sizes=64,128 --index=on 2>/dev/null \
  > "$work_dir/scale.on.txt"
"$build_dir/bench/bench_scale" --sizes=64,128 --index=off 2>/dev/null \
  | sed 's/index=off/index=on/' > "$work_dir/scale.off.txt"
compare "bench_scale (feasibility index on vs off)" \
  "$work_dir/scale.on.txt" "$work_dir/scale.off.txt"

sweep_args=(--jobs=40 --sweep-policies=kill,checkpoint,adaptive
  --sweep-media=hdd,ssd --sweep-seeds=1,2)
"$build_dir/tools/ckpt-sim" "${sweep_args[@]}" --parallel=1 \
  > "$work_dir/sweep.serial.txt"
"$build_dir/tools/ckpt-sim" "${sweep_args[@]}" --parallel=8 \
  > "$work_dir/sweep.parallel.txt"
compare "ckpt-sim sweep" \
  "$work_dir/sweep.serial.txt" "$work_dir/sweep.parallel.txt"

# Sharded single-run lane: one simulation drained on 1 vs 4 worker threads
# must agree on stdout AND on every exported artifact — metrics gauges
# (minus wall-clock ones), the decision audit log, and the waste ledger
# entries embedded in the metrics export.
for policy in kill checkpoint adaptive; do
  for shards in 1 4; do
    dir="$work_dir/sharded.$policy.$shards"
    mkdir -p "$dir"
    CKPT_OBS=1 CKPT_OBS_DIR="$dir" \
      "$build_dir/tools/ckpt-sim" --policy="$policy" --jobs=60 \
      --shards="$shards" > "$dir/stdout.txt"
    normalize_metrics "$dir/ckpt_sim.$policy.metrics.json"
  done
  ref="$work_dir/sharded.$policy.1"
  par="$work_dir/sharded.$policy.4"
  compare "ckpt-sim --policy=$policy sharded stdout (1 vs 4 workers)" \
    "$ref/stdout.txt" "$par/stdout.txt"
  compare "ckpt-sim --policy=$policy sharded metrics" \
    "$ref/ckpt_sim.$policy.metrics.json" "$par/ckpt_sim.$policy.metrics.json"
  compare "ckpt-sim --policy=$policy sharded audit log" \
    "$ref/ckpt_sim.$policy.audit.jsonl" "$par/ckpt_sim.$policy.audit.jsonl"
done

# Interference lanes: the shared-bandwidth pools, the cooperative dump
# scheduler, and periodic Young/Daly checkpoints must stay deterministic
# both across sweep worker counts and across shard counts.
"$build_dir/bench/bench_interference" --jobs 1 120 \
  > "$work_dir/interference.serial.txt"
"$build_dir/bench/bench_interference" --jobs 8 120 \
  > "$work_dir/interference.parallel.txt"
compare "bench_interference sweep (1 vs 8 workers)" \
  "$work_dir/interference.serial.txt" "$work_dir/interference.parallel.txt"

"$build_dir/bench/bench_interference" 120 --shards=1 \
  > "$work_dir/interference.shards1.txt"
"$build_dir/bench/bench_interference" 120 --shards=4 \
  > "$work_dir/interference.shards4.txt"
compare "bench_interference sharded (1 vs 4 workers)" \
  "$work_dir/interference.shards1.txt" "$work_dir/interference.shards4.txt"

for shards in 1 4; do
  "$build_dir/tools/ckpt-sim" --policy=adaptive --jobs=60 \
    --interference --dump-policy=aware --periodic-mtbf-min=240 \
    --shards="$shards" > "$work_dir/interference.sim.$shards.txt"
done
compare "ckpt-sim --interference sharded stdout (1 vs 4 workers)" \
  "$work_dir/interference.sim.1.txt" "$work_dir/interference.sim.4.txt"

# Service lanes: the diurnal service fleets, the SLO tick accounting, and
# the service-aware adaptive decisions must stay deterministic across sweep
# worker counts and across shard counts (the jitter is hash-keyed, so rate
# lookups never depend on evaluation order).
"$build_dir/bench/bench_services" --jobs 1 120 \
  > "$work_dir/services.serial.txt"
"$build_dir/bench/bench_services" --jobs 8 120 \
  > "$work_dir/services.parallel.txt"
compare "bench_services sweep (1 vs 8 workers)" \
  "$work_dir/services.serial.txt" "$work_dir/services.parallel.txt"

"$build_dir/bench/bench_services" 120 --shards=1 \
  > "$work_dir/services.shards1.txt"
"$build_dir/bench/bench_services" 120 --shards=4 \
  > "$work_dir/services.shards4.txt"
compare "bench_services sharded (1 vs 4 workers)" \
  "$work_dir/services.shards1.txt" "$work_dir/services.shards4.txt"

# Sharded streaming scale lane: bench_scale's deterministic stdout table
# through the streaming sharded driver, 1 vs 4 workers.
"$build_dir/bench/bench_scale" --sizes=64,128 --shards=1 2>/dev/null \
  > "$work_dir/scale.shards1.txt"
"$build_dir/bench/bench_scale" --sizes=64,128 --shards=4 2>/dev/null \
  > "$work_dir/scale.shards4.txt"
compare "bench_scale sharded streaming (1 vs 4 workers)" \
  "$work_dir/scale.shards1.txt" "$work_dir/scale.shards4.txt"

# Batched safe-window lanes. Amortized window batching changes only HOW a
# window's events are drained and merged, never which events run in which
# window — so every artifact, including the sim.barriers /
# sim.events_per_window telemetry, must be byte-identical with batching on
# vs off, and (with batching pinned on) across worker counts.
for batch in on off; do
  dir="$work_dir/batch.$batch"
  mkdir -p "$dir"
  CKPT_OBS=1 CKPT_OBS_DIR="$dir" \
    "$build_dir/tools/ckpt-sim" --policy=adaptive --jobs=60 \
    --shards=4 --batch="$batch" > "$dir/stdout.txt"
  normalize_metrics "$dir/ckpt_sim.adaptive.metrics.json"
done
compare "ckpt-sim batched windows (on vs off) stdout" \
  "$work_dir/batch.on/stdout.txt" "$work_dir/batch.off/stdout.txt"
compare "ckpt-sim batched windows (on vs off) metrics" \
  "$work_dir/batch.on/ckpt_sim.adaptive.metrics.json" \
  "$work_dir/batch.off/ckpt_sim.adaptive.metrics.json"
compare "ckpt-sim batched windows (on vs off) audit log" \
  "$work_dir/batch.on/ckpt_sim.adaptive.audit.jsonl" \
  "$work_dir/batch.off/ckpt_sim.adaptive.audit.jsonl"

for shards in 1 4; do
  dir="$work_dir/batchshards.$shards"
  mkdir -p "$dir"
  CKPT_OBS=1 CKPT_OBS_DIR="$dir" \
    "$build_dir/tools/ckpt-sim" --policy=adaptive --jobs=60 \
    --batch=on --shards="$shards" > "$dir/stdout.txt"
  normalize_metrics "$dir/ckpt_sim.adaptive.metrics.json"
done
compare "ckpt-sim batching-on sharded stdout (1 vs 4 workers)" \
  "$work_dir/batchshards.1/stdout.txt" "$work_dir/batchshards.4/stdout.txt"
compare "ckpt-sim batching-on sharded metrics (1 vs 4 workers)" \
  "$work_dir/batchshards.1/ckpt_sim.adaptive.metrics.json" \
  "$work_dir/batchshards.4/ckpt_sim.adaptive.metrics.json"
compare "ckpt-sim batching-on sharded audit log (1 vs 4 workers)" \
  "$work_dir/batchshards.1/ckpt_sim.adaptive.audit.jsonl" \
  "$work_dir/batchshards.4/ckpt_sim.adaptive.audit.jsonl"

# YARN lane: the ResourceManager's preemption monitor, the AMs and the node
# managers print the same tables with observability on and off.
mkdir -p "$work_dir/yarn_obs"
yarn_obs_lane() {
  local name="$1"
  shift
  "$build_dir/bench/$name" "$@" > "$work_dir/$name.plain.txt"
  CKPT_OBS=1 CKPT_OBS_DIR="$work_dir/yarn_obs" \
    "$build_dir/bench/$name" "$@" > "$work_dir/$name.obs.txt"
  compare "$name (CKPT_OBS=1 vs off)" \
    "$work_dir/$name.plain.txt" "$work_dir/$name.obs.txt"
}
yarn_obs_lane bench_fig8_yarn 600
yarn_obs_lane bench_fig10_yarn_adaptive

exit "$fail"
