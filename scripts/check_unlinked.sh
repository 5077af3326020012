#!/usr/bin/env bash
# Fail when src/ defines a function that no shipped binary links.
#
# The shipped binaries are every executable under bench/, tools/ and
# examples/, plus the repository benchmark's ckpt_bench and the ckpt-report
# it builds. They are compiled at -O0 with one section per function and
# linked with --gc-sections, so nothing is inlined and a binary keeps
# exactly the functions it can reach. A ckpt:: text symbol (T, t or W whose
# mangled name starts with _ZN4ckpt or _ZNK4ckpt) that the src/ libraries
# define and none of those binaries contains is dead API: only tests, or
# nothing, call it. That covers every function whose body is in a .cc file
# and every template a library instantiates; a header inline function is
# checked only where some library function calls it.
#
# The allowlist below names the read-only helpers that tests use to observe
# state the program keeps. It matches the demangled name without its
# parameter list (c++filt -p), so an entry covers every overload. Any other
# unlinked function fails the check, and so does an allowlist entry that
# matches nothing unlinked.
#
# Usage: scripts/check_unlinked.sh [build-dir]
#        Builds into <build-dir>-unlinked and <build-dir>-unlinked-bench
#        (default build-dir: build/ at the repository root).
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
lib_dir="$build_dir-unlinked"
bench_dir="$build_dir-unlinked-bench"

# One entry per line: the demangled name, then "#" and why it stays.
allowlist='
ckpt::Tracer::SortedEvents  # tests read back traced spans and fault instants
ckpt::AuditLog::record  # tests read back audited decisions
ckpt::PackedRing::DecodeArgs  # decodes args for the two readers above
ckpt::TraceRecord::TraceRecord  # builds the records SortedEvents returns
ckpt::TraceRecord::~TraceRecord  # destroys the records SortedEvents returns
ckpt::DfsCluster::Stat  # tests check where the DFS placed block replicas
ckpt::DfsCluster::total_stored  # tests check that DFS bytes are conserved
ckpt::MemoryImage::IsPageDirty  # tests check soft-dirty page tracking
ckpt::ResourceManager::FindContainer  # tests check container liveness
ckpt::WasteLedger::Total  # tests check the waste charged to each cause
'

flags=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
jobs="$(nproc)"

# The Makefile generator builds one directory's targets (and the libraries
# they link) with make -C, so no test target is built.
cmake -G "Unix Makefiles" -B "$lib_dir" -S "$repo_root" "${flags[@]}" \
  > /dev/null
for dir in bench tools examples; do
  make -C "$lib_dir/$dir" -j "$jobs" > /dev/null
done
cmake -B "$bench_dir" -S "$repo_root/benchmark" "${flags[@]}" > /dev/null
cmake --build "$bench_dir" -j "$jobs" > /dev/null

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

# Mangled ckpt:: text symbols defined in the given files.
ckpt_text_symbols() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtW]$/ && $3 ~ /^_ZN?K?4ckpt/ { print $3 }' | sort -u
}

mapfile -t libs < <(find "$lib_dir/src" -name '*.a' | sort)
mapfile -t exes < <(find "$lib_dir/bench" "$lib_dir/tools" "$lib_dir/examples" \
  "$bench_dir" -maxdepth 1 -type f -perm -u+x | sort)
if (( ${#libs[@]} == 0 || ${#exes[@]} == 0 )); then
  echo "check_unlinked.sh: no libraries or executables under $lib_dir" >&2
  exit 1
fi

ckpt_text_symbols "${libs[@]}" > "$work_dir/libs.txt"
ckpt_text_symbols "${exes[@]}" > "$work_dir/exes.txt"
comm -23 "$work_dir/libs.txt" "$work_dir/exes.txt" > "$work_dir/unlinked.txt"
# One "name<TAB>full demangled name" line per unlinked symbol.
paste <(c++filt -p < "$work_dir/unlinked.txt") \
  <(c++filt < "$work_dir/unlinked.txt") | sort -u > "$work_dir/demangled.tsv"
sed -e '/^$/d' -e 's/[[:space:]]*#.*$//' <<< "$allowlist" | sort -u \
  > "$work_dir/allowed.txt"

status=0
awk -F '\t' 'NR == FNR { allowed[$0] = 1; next }
  !($1 in allowed) { print $2 }' \
  "$work_dir/allowed.txt" "$work_dir/demangled.tsv" > "$work_dir/new.txt"
if [[ -s "$work_dir/new.txt" ]]; then
  echo "check_unlinked.sh: no shipped binary links these src/ functions:" >&2
  sed 's/^/  /' "$work_dir/new.txt" >&2
  echo "Delete them, or add a line with the reason to the allowlist in $0." >&2
  status=1
fi
cut -f1 "$work_dir/demangled.tsv" | sort -u |
  comm -13 - "$work_dir/allowed.txt" > "$work_dir/stale.txt"
if [[ -s "$work_dir/stale.txt" ]]; then
  echo "check_unlinked.sh: allowlist entries that match nothing unlinked:" >&2
  sed 's/^/  /' "$work_dir/stale.txt" >&2
  status=1
fi
if (( status == 0 )); then
  echo "check_unlinked.sh: ${#exes[@]} binaries link every ckpt:: function" \
    "in src/ outside the $(wc -l < "$work_dir/allowed.txt")-entry allowlist"
fi
exit "$status"
