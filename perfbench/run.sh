#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Build outputs and the Go caches stay under .bench_build (or
# $CARGO_TARGET_DIR when set); results go to .bench_out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

# Keep every file the go command writes inside the build directory, and
# never reach for the network.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
