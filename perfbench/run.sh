#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments (see README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload stream-500 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build (or
# $BENCH_BUILD_DIR), including the Go build cache and the go command's
# configuration and telemetry directory.
set -euo pipefail

build="${BENCH_BUILD_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/go-config"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/go-config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
