#!/usr/bin/env bash
# End-to-end benchmark of the DCIR reproduction (see README.md here).
#
#   bench/e2e/run.sh [--workload=NAME|all] [--seed=N] [--trace[=0|1]]
#                    [--smoke] [--out=DIR] [--seconds=S]
#
# Flags also take the value as the next argument (--seed 3). Builds the
# library and the dcir_e2e binary into bench/e2e/build/, then runs each
# workload as its own process with a clean DCIR_* environment, measuring
# for run_seconds of BENCHMARK.json (one second with --smoke). Prints
# `workload metric value unit` lines and, last, one JSON result line per
# workload; writes <out>/<workload>.json. Exits non-zero when the build
# fails or any output disagrees with its reference. --seconds changes
# nothing: it is accepted only when it equals run_seconds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workload=all seed=1 seconds="" trace=0 smoke=0 out="$here/out"

usage() {
  sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [ $# -gt 0 ]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}" value="${arg#*=}" ;;
    --smoke) smoke=1; continue ;;
    --trace)
      if [ $# -gt 0 ] && { [ "$1" = 0 ] || [ "$1" = 1 ]; }; then
        trace="$1"; shift
      else
        trace=1
      fi
      continue ;;
    --*) name="$arg"; [ $# -gt 0 ] || usage; value="$1"; shift ;;
    *) usage ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --out) out="$value" ;;
    *) usage ;;
  esac
done
run_seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' \
  "$root/BENCHMARK.json" 2>/dev/null || true)"
if [ -n "$seconds" ] && [ "$seconds" != "$run_seconds" ]; then
  echo "run.sh: --seconds=$seconds differs from run_seconds" \
    "($run_seconds) in BENCHMARK.json, which sets the window" >&2
  exit 2
fi

# Ambient settings must not change what is measured.
for var in $(compgen -e); do
  case "$var" in DCIR_* | OMP_* | GOMP_*) unset "$var" ;; esac
done

build="$here/build"
mkdir -p "$build/tmp" "$out"
export TMPDIR="$build/tmp"
nproc="$(nproc)"
jobs=$((nproc < 4 ? nproc : 4))
log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs" --target dcir_e2e; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$workload" = all ]; then
  workloads="$("$build/dcir_e2e" --list)"
else
  workloads="$workload"
fi

fresh=""
trap 'if [ -n "$fresh" ]; then rm -rf "$fresh"; fi' EXIT
status=0
for w in $workloads; do
  # serve-shapes names its variants from a per-Program counter, so a
  # persistent cache would turn later runs' rebuilds into disk hits: it
  # gets a fresh artifact cache. The others keep theirs across runs.
  if [ "$w" = serve-shapes ]; then
    fresh="$(mktemp -d "$build/cache-fresh.XXXXXX")"
    cache="$fresh"
  else
    cache="$build/cache/$w"
  fi
  mkdir -p "$cache"
  args=(--workload "$w" --seed "$seed" --trace "$trace"
        --out "$out" --work "$build/work" --commit "$commit")
  [ "$smoke" = 1 ] && args+=(--smoke)
  DCIR_CACHE_DIR="$cache" "$build/dcir_e2e" "${args[@]}" || status=$?
  if [ -n "$fresh" ]; then
    rm -rf "$fresh"
    fresh=""
  fi
done
exit "$status"
