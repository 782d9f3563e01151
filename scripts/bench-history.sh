#!/usr/bin/env sh
# Bench-history pipeline: run the tracked benchmarks at a real
# -benchtime and either record a new committed snapshot in bench/
# (BENCH_NNNN.json, highest number = baseline) or compare the run
# against the baseline and fail on regressions beyond the threshold.
#
#   scripts/bench-history.sh record  [label]    # append a snapshot
#   scripts/bench-history.sh compare [percent]  # guard (default 25%)
#
# Used by `make bench-record` / `make bench-guard` and the CI
# bench-guard job. Needs only sh and go.
set -eu

mode="${1:-compare}"
arg="${2:-}"
benchtime="${BENCHTIME:-0.5s}"
# Kernel benchmarks run a fixed iteration count, not a duration:
# allocs/op is guarded at exactly zero growth, and a count keeps the
# measured op population identical across machines of any speed.
kernel_benchtime="${KERNEL_BENCHTIME:-5000x}"
dir="${BENCHDIR:-bench}"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "bench-history: running tracked benchmarks (-benchtime $benchtime)" >&2

# The tracked set deliberately spans the hot layers: the staged run
# builder (cold vs warm artifact cache), the end-to-end scheduler
# decision loop, and the communication-aware placement path (annealing
# search + pairwise contention charge).
go test -run '^$' -bench 'BenchmarkRunBuildColdVsWarm' \
    -benchtime "$benchtime" ./internal/build/ >>"$out"
go test -run '^$' -bench 'BenchmarkSchedulerDecision|BenchmarkAnnealFinder|BenchmarkContentionCharge' \
    -benchtime "$benchtime" . >>"$out"
go test -run '^$' -bench 'BenchmarkKernelSteadyState' \
    -benchtime "$kernel_benchtime" -benchmem . >>"$out"

case "$mode" in
record)
    go run ./cmd/bgbench record -dir "$dir" -label "${arg:-$(git rev-parse --short HEAD 2>/dev/null || echo manual)}" <"$out"
    ;;
compare)
    go run ./cmd/bgbench compare -dir "$dir" -threshold "${arg:-25}" \
        -allocguard '^BenchmarkKernelSteadyState' <"$out"
    ;;
*)
    echo "bench-history: unknown mode $mode (want record or compare)" >&2
    exit 2
    ;;
esac
