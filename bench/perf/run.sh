#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it (see README.md).
#
#   bash bench/perf/run.sh --workload NAME [--seed S] [--seconds T]
#                          [--trace 0|1]
#       One workload in one process.  The last stdout line is the JSON
#       result; the exit code is 0 when every check passed.
#   bash bench/perf/run.sh [--runs N] [--seconds T] [--trace] [--out FILE]
#       Every workload N times (seeds 1..N), one process at a time; prints
#       every metric by name and unit, appends one JSON line per run to
#       FILE, and exits non-zero if any run failed a check.
#   bash bench/perf/run.sh --smoke
#       Short reps of every workload against the committed smoke digests.
#
# The build is the repo's own CMake tree, RelWithDebInfo, in
# .bench_build/perf at the repo root, with bench/perf attached to it
# (attach.cmake); only the pps_perf target and the libraries it links are
# built.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/perf"
workloads=(uniform-steady congested-sweep faulted-serve clos-network)

workload="" seed=1 seconds=20 trace=0 runs=1 out="" smoke=0
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
if ! { [[ -f "$build/Makefile" ]] ||
       cmake -S "$root" -B "$build" -G "Unix Makefiles" \
         -DCMAKE_BUILD_TYPE=RelWithDebInfo \
         "-DCMAKE_PROJECT_pps_delay_INCLUDE=$here/attach.cmake"; } \
     >"$build/build.log" 2>&1 ||
   ! cmake --build "$build" --target pps_perf -j "$(nproc)" \
     >>"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed; log in $build/build.log" >&2
  exit 2
fi
perf=("$build/pps_perf" "--data-dir=$here")

if ((smoke)); then
  exec "${perf[@]}" --smoke
fi
if [[ -n "$workload" ]]; then
  exec "${perf[@]}" "--workload=$workload" "--seed=$seed" \
    "--seconds=$seconds" "--trace=$trace"
fi

failed=0
for ((s = 1; s <= runs; s++)); do
  for w in "${workloads[@]}"; do
    echo "== $w seed $s$( ((trace)) && echo ' (traced)')"
    status=0
    output="$("${perf[@]}" "--workload=$w" "--seed=$s" \
      "--seconds=$seconds" "--trace=$trace")" || status=$?
    grep -v '^{' <<<"$output" || true
    if ((status != 0)); then
      echo "run.sh: $w seed $s failed (exit $status)" >&2
      failed=1
    fi
    result="$(tail -n 1 <<<"$output")"
    if [[ -n "$out" && "$result" == "{"* ]]; then
      printf '{"workload": "%s", "seed": %d, "trace": %d, "result": %s}\n' \
        "$w" "$s" "$trace" "$result" >>"$out"
    fi
  done
done
exit "$failed"
