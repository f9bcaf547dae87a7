#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through (README.md in this directory lists them). Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload ws_silo_s4_cold --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and each run's checkpoint and span files
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
# Outside a checkout of the repository (no go.mod) the build fails and the
# script exits non-zero without running anything.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -work "$out" "$@"
