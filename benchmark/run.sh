#!/usr/bin/env bash
# Builds isbench (Release, into build-bench/) and runs it.
#
# One workload, as BENCHMARK.json's command runs it (the last stdout line is
# the result JSON):
#   bash benchmark/run.sh --workload url-sparse --seed 1 --seconds 25 --trace 0
#
# Every workload, each in its own traced process (its untraced A/B runs come
# first, so the record holds the end-to-end and the per-layer metrics),
# merged into one results file (default build-bench/results.json) with the
# Chrome traces beside it:
#   bash benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
cd "$root"

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
isbench=("$build/isbench" --commit "$commit" --workdir "$build/work")

workload=""
seed=1
# BENCHMARK.json's run_seconds, so a full run measures what its command runs.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
trace=0
out="$build/results.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$workload" ]]; then
  # A child, not exec: the kernel carries a process's reaped-children peak
  # RSS across exec, so the build's processes would count in ps-shm's
  # peak_rss_mb.
  "${isbench[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --trace-dir "$build/traces" \
    --out "$build/$workload-$seed-trace$trace.json"
  exit
fi

# Full run: all four workloads; a failed check fails the whole run, after
# every workload has run.
out_dir="$(dirname "$out")"
mkdir -p "$out_dir/traces"
records=()
status=0
for w in news20-contended url-sparse packed-ooc ps-shm; do
  record="$build/$w-$seed-trace1.json"
  rm -f "$record"
  "${isbench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 1 --trace-dir "$out_dir/traces" --out "$record" || status=1
  if [[ -f "$record" ]]; then records+=("$record"); fi
done
{
  printf '{"runs": [\n'
  sep=""
  for record in "${records[@]}"; do
    printf '%s' "$sep"
    cat "$record"
    sep=","
  done
  printf ']}\n'
} >"$out"
echo "wrote $out" >&2
exit "$status"
