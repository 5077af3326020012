#!/usr/bin/env bash
# Parallel execution must be byte-identical to its single-threaded reference
# execution, and recording must never change a result. Three families of
# lanes:
#
# Sweep lanes (cells run on private Simulators and merge in cell order):
#   * bench_fig3_trace_sim  --jobs 1  vs  --jobs 8   (small workload)
#   * bench_ext_failure     --jobs 1  vs  --jobs 8   (fault-injection sweep:
#     scripted node crashes + transient I/O faults with a fixed fault seed)
#   * ckpt-sim sweep        --parallel 1 vs --parallel 8
#   * bench_interference and bench_services  --jobs 1 vs --jobs 8
#
# Index lane: bench_scale with the feasibility index on vs off.
#
# Observability lanes (CKPT_OBS=1 vs without, stdout only):
#   * ClusterScheduler: ckpt-sim --jobs=60 under kill, checkpoint and
#     adaptive, plus adaptive with --interference --dump-policy=aware
#     --periodic-mtbf-min=240 (the DumpScheduler path); the other victim
#     orders under adaptive: --victims=lowest-priority, and --victims=random
#     with --interference --dump-policy=staggered, the latter also at
#     --jobs=200
#   * YARN (the RM/AM/NM front-end): bench_fig8_yarn and
#     bench_fig10_yarn_adaptive
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
# 1,025 nodes give an 11-level tree whose leaf count is not a power of two,
# where the preempt bounds stay loose longest.
"$build_dir/bench/bench_scale" --sizes=64,128,1025 --index=on 2>/dev/null \
  > "$work_dir/scale.on.txt"
"$build_dir/bench/bench_scale" --sizes=64,128,1025 --index=off 2>/dev/null \
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

# Interference lane: the shared-bandwidth pools, the cooperative dump
# scheduler, and periodic Young/Daly checkpoints must stay deterministic
# across sweep worker counts.
"$build_dir/bench/bench_interference" --jobs 1 120 \
  > "$work_dir/interference.serial.txt"
"$build_dir/bench/bench_interference" --jobs 8 120 \
  > "$work_dir/interference.parallel.txt"
compare "bench_interference sweep (1 vs 8 workers)" \
  "$work_dir/interference.serial.txt" "$work_dir/interference.parallel.txt"

# Service lane: the diurnal service fleets, the SLO tick accounting, and
# the service-aware adaptive decisions must stay deterministic across sweep
# worker counts (the jitter is hash-keyed, so rate lookups never depend on
# evaluation order).
"$build_dir/bench/bench_services" --jobs 1 120 \
  > "$work_dir/services.serial.txt"
"$build_dir/bench/bench_services" --jobs 8 120 \
  > "$work_dir/services.parallel.txt"
compare "bench_services sweep (1 vs 8 workers)" \
  "$work_dir/services.serial.txt" "$work_dir/services.parallel.txt"

# Observability lanes: recording decisions, traces and the audit log must
# not change a single stdout byte. ckpt-sim covers ClusterScheduler,
# including the DumpScheduler path (interference + aware admission +
# periodic dumps) and every victim order: a traced scan costs candidates a
# plain one never costs, most of all under the random order. The YARN
# benches cover the ResourceManager's preemption monitor, the AMs and the
# node managers.
obs_lane() {
  local dir="$work_dir/obs.$1"
  shift
  mkdir -p "$dir"
  "$build_dir/$1" "${@:2}" > "$dir/plain.txt"
  CKPT_OBS=1 CKPT_OBS_DIR="$dir" "$build_dir/$1" "${@:2}" > "$dir/obs.txt"
  compare "$* (CKPT_OBS=1 vs off)" "$dir/plain.txt" "$dir/obs.txt"
}
obs_lane sim_kill tools/ckpt-sim --jobs=60 --policy=kill
obs_lane sim_checkpoint tools/ckpt-sim --jobs=60 --policy=checkpoint
obs_lane sim_adaptive tools/ckpt-sim --jobs=60 --policy=adaptive
obs_lane sim_interference tools/ckpt-sim --jobs=60 --policy=adaptive \
  --interference --dump-policy=aware --periodic-mtbf-min=240
obs_lane sim_lowest_priority tools/ckpt-sim --jobs=60 --policy=adaptive \
  --victims=lowest-priority
obs_lane sim_random_staggered tools/ckpt-sim --jobs=60 --policy=adaptive \
  --victims=random --interference --dump-policy=staggered
# At 200 jobs the traced random-order run costs ~9x the victims the plain
# run does; a cost cache that misses a deferred dump admission's effect on
# the queue term diverges here but not at 60 jobs.
obs_lane sim_random_staggered_200 tools/ckpt-sim --jobs=200 \
  --policy=adaptive --victims=random --interference --dump-policy=staggered
obs_lane fig8 bench/bench_fig8_yarn 600
obs_lane fig10 bench/bench_fig10_yarn_adaptive

exit "$fail"
