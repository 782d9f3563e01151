#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload headline-run --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache, the
# build's temporary files and the traced pass's spans live under
# $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout. Build failures exit non-zero.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
