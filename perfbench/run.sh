#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs and run scratch stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# The go command keeps its telemetry counters under the config directory.
export XDG_CONFIG_HOME="$out/config"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
