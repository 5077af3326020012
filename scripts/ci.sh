#!/usr/bin/env bash
# Build, run the test suite, and validate observability output end to end:
# a short fig8 bench run with CKPT_OBS=1 must produce Chrome traces that
# scripts/check_trace.py accepts, including ckpt.dump spans and
# policy.decision instants (the Algorithm-1 cost terms).
#
# The repository benchmark's smoke run (benchmark/run.py --smoke) must pass
# every output check.
#
# An ASan+UBSan lane rebuilds the observability tests and two traced
# benches: the tracer and audit log keep string_view keys and copy string
# values out of the caller's buffers, so lifetimes are checked by running.
# The lane also runs the fault, failure-injection and interference suites,
# whose crash and I/O-failure unwinds erase node-bucket entries and release
# image reservations by hand.
#
# A further lane rebuilds the threaded pieces under ThreadSanitizer and runs
# the thread-pool tests plus the parallel-sweep determinism check
# (scripts/check_determinism.sh) with TSan watching the workers.
#
# Usage: scripts/ci.sh [build-dir]
# Env:   CKPT_SANITIZE=address|undefined|thread forwards to CMake.
#        CKPT_CI_TSAN=0 skips the ThreadSanitizer lane.
#        Both sanitizer lanes run only when CKPT_SANITIZE is unset.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake_args=(-B "$build_dir" -S "$repo_root")
if [[ -n "${CKPT_SANITIZE:-}" ]]; then
  cmake_args+=("-DCKPT_SANITIZE=${CKPT_SANITIZE}")
fi

cmake "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# Observability smoke test: a small fig8 run with tracing on.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$build_dir/bench/bench_fig8_yarn" 600 \
  > "$obs_dir/stdout.txt"

# Every policy row must carry Algorithm-1 decision instants; the checkpoint
# rows must additionally contain dump spans (the Kill row never dumps).
python3 "$repo_root/scripts/check_trace.py" \
  --require policy.decision \
  "$obs_dir"/bench_fig8_yarn.*.trace.json
python3 "$repo_root/scripts/check_trace.py" \
  --require ckpt.dump --require ckpt.restore \
  "$obs_dir"/bench_fig8_yarn.Chk-*.trace.json

test -s "$obs_dir/bench_fig8_yarn.metrics.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
  "$obs_dir/bench_fig8_yarn.metrics.json"

# Decision-audit smoke lane: a small fig3 run with CKPT_OBS=1 must emit
# per-cell audit streams that validate against the schema in
# docs/OBSERVABILITY.md, and ckpt-report must render a run report whose
# waste ledger reconciles with the goodput gap (no MISMATCH marker).
CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$build_dir/bench/bench_fig3_trace_sim" 300 \
  > "$obs_dir/fig3_stdout.txt"
python3 "$repo_root/scripts/check_trace.py" --require preempt_scan \
  "$obs_dir"/bench_fig3_trace_sim.*.audit.jsonl
"$build_dir/tools/ckpt-report" \
  "$obs_dir/bench_fig3_trace_sim.metrics.json" \
  "$obs_dir"/bench_fig3_trace_sim.*.audit.jsonl > "$obs_dir/fig3_report.txt"
grep -q "reconciliation:" "$obs_dir/fig3_report.txt"
if grep -q "MISMATCH" "$obs_dir/fig3_report.txt"; then
  echo "ci.sh: waste ledger does not reconcile with the goodput gap" >&2
  exit 1
fi

# Parser cross-check: ckpt-report's streaming tallies of the fig3 audit
# streams and the fig8 Chrome traces must equal what Python's json module
# counts in the same files (check_trace.py --summary prints them in
# ckpt-report's layout).
for artifacts in "bench_fig3_trace_sim.*.audit.jsonl" "bench_fig8_yarn.*.trace.json"; do
  # shellcheck disable=SC2086  # the pattern is meant to glob
  "$build_dir/tools/ckpt-report" "$obs_dir"/$artifacts > "$obs_dir/report.txt"
  # shellcheck disable=SC2086
  python3 "$repo_root/scripts/check_trace.py" --summary "$obs_dir"/$artifacts \
    > "$obs_dir/summary.txt"
  if ! diff -u "$obs_dir/summary.txt" "$obs_dir/report.txt"; then
    echo "ci.sh: ckpt-report disagrees with Python's json on $artifacts" >&2
    exit 1
  fi
done

# A/B analyzer lane: kill vs adaptive single runs must diff with a
# non-empty waste attribution table.
CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$build_dir/tools/ckpt-sim" \
  --policy=kill --jobs=200 > /dev/null
CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$build_dir/tools/ckpt-sim" \
  --policy=adaptive --jobs=200 > /dev/null
"$build_dir/tools/ckpt-report" --diff \
  "$obs_dir/ckpt_sim.kill.metrics.json" \
  "$obs_dir/ckpt_sim.adaptive.metrics.json" > "$obs_dir/diff_report.txt"
grep -q "kill_lost_work" "$obs_dir/diff_report.txt"

# Repository benchmark smoke: every workload at ~1/20 size, plain and traced,
# with the output checks (completion, waste identity, traced digest equal to
# plain, ledger reconciliation, ckpt-report). Builds into build-bench/.
python3 "$repo_root/benchmark/run.py" --smoke

# ASan+UBSan lane: the recording paths (tracer spans and instants, audit
# records with candidate lists, their exports and owning copies) plus the
# schedulers and DFS that feed them, the checkpoint lifecycle's crash and
# I/O-failure unwinds, and two traced bench runs.
if [[ -z "${CKPT_SANITIZE:-}" ]]; then
  asan_dir="$build_dir-asan"
  asan_tests=(test_audit_log test_obs_tracer test_obs_export test_packed_ring
    test_json test_waste_ledger test_cluster_scheduler test_yarn_integration
    test_dfs test_fault test_failure_injection test_interference)
  cmake -B "$asan_dir" -S "$repo_root" -DCKPT_SANITIZE=address,undefined
  cmake --build "$asan_dir" -j "$(nproc)" \
    --target "${asan_tests[@]}" bench_fig3_trace_sim bench_fig8_yarn
  export UBSAN_OPTIONS=halt_on_error=1
  for t in "${asan_tests[@]}"; do
    "$asan_dir/tests/$t"
  done
  CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$asan_dir/bench/bench_fig3_trace_sim" \
    300 > /dev/null
  CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$asan_dir/bench/bench_fig8_yarn" 600 \
    > /dev/null
  unset UBSAN_OPTIONS
  echo "ci.sh: ASan+UBSan lane passed"
fi

# ThreadSanitizer lane: threads appear in one place — the sweep runner
# (thread pool + per-cell merge; every cell owns a private Simulator).
# Build just the swept targets under TSan and run the threaded tests and
# the serial-vs-parallel determinism diff.
if [[ "${CKPT_CI_TSAN:-1}" != "0" && -z "${CKPT_SANITIZE:-}" ]]; then
  tsan_dir="$build_dir-tsan"
  cmake -B "$tsan_dir" -S "$repo_root" -DCKPT_SANITIZE=thread
  cmake --build "$tsan_dir" -j "$(nproc)" \
    --target test_thread_pool test_fault test_feasibility_index \
    test_workload_stream test_interference test_service \
    bench_fig3_trace_sim bench_ext_failure bench_scale bench_interference \
    bench_services bench_fig8_yarn bench_fig10_yarn_adaptive ckpt_sim_cli
  "$tsan_dir/tests/test_thread_pool"
  "$tsan_dir/tests/test_workload_stream"
  # Fault injection draws RNG inside sweep cells; TSan watches the fault
  # tests and the parallel fault sweep for cross-cell sharing.
  "$tsan_dir/tests/test_fault"
  # The feasibility index is per-scheduler state; TSan verifies sweep cells
  # never share one (each cell's scheduler owns its index and slab arena).
  "$tsan_dir/tests/test_feasibility_index"
  # Bandwidth pools and the dump scheduler are per-cell state; TSan watches
  # the e2e interference runs and the interference sweep for cross-thread
  # access to pool or admission state.
  "$tsan_dir/tests/test_interference"
  # Service ticks and replica hooks run inside each sweep cell's event
  # loop; TSan watches the service lanes in check_determinism.sh below for
  # cross-cell manager sharing.
  "$tsan_dir/tests/test_service"
  "$repo_root/scripts/check_determinism.sh" "$tsan_dir"
  echo "ci.sh: TSan lane passed"
fi

echo "ci.sh: all checks passed"
