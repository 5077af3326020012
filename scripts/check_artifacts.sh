#!/usr/bin/env bash
# Two builds must export the same observability artifacts. Runs the same
# traced (CKPT_OBS=1) commands against REF_BUILD and BUILD and compares,
# command by command:
#   * stdout, and every *.trace.json and *.audit.jsonl, byte for byte;
#   * every *.metrics.json after scripts/normalize_metrics.py drops the
#     wall-clock gauges (self.*, process.peak_rss_bytes);
#   * each build's ckpt-report over the command's artifacts, minus the
#     self-profile section (tool wall clock).
# Use it to show that a change to the recording or export code, or to a
# checkpoint lifecycle (the scheduler's or the YARN ApplicationMaster's), is
# invisible in what a run explains, e.g. with REF_BUILD built from the
# parent commit. The ckpt-sim commands reach preemption and periodic dumps
# with and without interference, a node crash during periodic dumps, and
# full dumps over existing images. Default-size fig8 preempts containers
# mid-restore, which fig8 600 never does. The MapReduce bench and example
# are the only DAG runs; they export nothing, so only their stdout is
# compared.
#
# Usage: scripts/check_artifacts.sh REF_BUILD BUILD
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 REF_BUILD BUILD" >&2
  exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
ref_build="$(cd "$1" && pwd)"
build="$(cd "$2" && pwd)"
shopt -s nullglob  # not every command exports a trace or an audit

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

commands=(
  "fig3|bench/bench_fig3_trace_sim 300"
  "fig8|bench/bench_fig8_yarn 600"
  "fig8_default|bench/bench_fig8_yarn"
  "services|bench/bench_services 120"
  "sim_adaptive|tools/ckpt-sim --policy=adaptive --jobs=200"
  "sim_interference|tools/ckpt-sim --interference --dump-policy=aware --jobs=200 --periodic-mtbf-min=240"
  "sim_crash_periodic|tools/ckpt-sim --policy=adaptive --periodic-mtbf-min=240 --jobs=200 --fail-node=0 --fail-at=60"
  "sim_crash_interference|tools/ckpt-sim --policy=adaptive --periodic-mtbf-min=240 --jobs=200 --fail-node=0 --fail-at=60 --interference --dump-policy=aware"
  "sim_full_dumps|tools/ckpt-sim --policy=checkpoint --no-incremental --jobs=200"
  "mapreduce|bench/bench_ext_mapreduce"
  "mapreduce_pipeline|examples/mapreduce_pipeline"
)

# Runs every command against build $1 into $2/<name>/, then renders the
# report without its self-profile rows (for commands that export any).
run_all() {
  local bin="$1" out="$2" entry name cmd exported
  for entry in "${commands[@]}"; do
    name="${entry%%|*}"
    cmd="${entry#*|}"
    mkdir -p "$out/$name"
    # shellcheck disable=SC2086  # cmd holds the binary and its arguments
    CKPT_OBS=1 CKPT_OBS_DIR="$out/$name" "$bin"/$cmd \
      > "$out/$name/stdout.txt"
    exported=("$out/$name"/*.json "$out/$name"/*.jsonl)
    [[ ${#exported[@]} -gt 0 ]] || continue  # stdout-only command
    (cd "$out/$name" && "$bin/tools/ckpt-report" ./*.metrics.json \
      ./*.audit.jsonl ./*.trace.json) |
      awk '/^-- self-profile/ { skip = 1; next }
           skip && /^$/ { skip = 0 }
           !skip' > "$out/$name/report.txt"
    python3 "$repo_root/scripts/normalize_metrics.py" "$out/$name"/*.metrics.json
  done
}

run_all "$ref_build" "$work_dir/ref"
run_all "$build" "$work_dir/new"

fail=0
compared=0
while IFS= read -r -d '' ref; do
  rel="${ref#"$work_dir/ref/"}"
  new="$work_dir/new/$rel"
  compared=$((compared + 1))
  if [[ ! -f "$new" ]]; then
    echo "check_artifacts: FAIL: $rel missing from $build"
    fail=1
  elif ! cmp -s "$ref" "$new"; then
    echo "check_artifacts: FAIL: $rel differs:"
    diff "$ref" "$new" | head -10 || true
    fail=1
  fi
done < <(find "$work_dir/ref" -type f -print0 | sort -z)
extra="$(cd "$work_dir" && comm -13 <(cd ref && find . -type f | sort) \
  <(cd new && find . -type f | sort))"
if [[ -n "$extra" ]]; then
  echo "check_artifacts: FAIL: files only $build exported:"
  echo "$extra"
  fail=1
fi

if [[ "$fail" == 0 ]]; then
  echo "check_artifacts: $compared files identical"
fi
exit "$fail"
