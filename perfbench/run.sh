#!/usr/bin/env bash
# Builds and runs the whole-run benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 15 --trace 0
#
# The benchmark is a Go module of its own that replaces silenttracker with the
# enclosing tree, so it builds from the checkout's sources. The binary, the Go
# build cache and every scratch store live under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
