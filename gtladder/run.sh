#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash gtladder/run.sh --workload hot-agg --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, temporary files, span files) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$root/gtladder" && go build -o "$build/bin/gtladder" .)
exec "$build/bin/gtladder" "$@"
