#!/usr/bin/env bash
# Builds perfbench, its launcher and the two binaries under test (uavdeploy,
# uavserve) from this checkout's sources, then runs perfbench with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload enum-fig6 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare .bench_build/results-a .bench_build/results-b
#
# Everything it writes (Go build cache, binaries, inputs, job directories,
# result files) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/uavdeploy ./cmd/uavserve
go build -C perfbench -o "$out/bin/" . ./launcher
exec "$out/bin/perfbench" -root "$root" "$@"
