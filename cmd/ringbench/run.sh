#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it): build ringbench from
# source inside the checkout, then run it with the arguments given. Every
# file the build and the run write — Go's build cache included — lands under
# .bench_build/ in the checkout, nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/ringbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
(cd "$here" && go build -o "$build/ringbench/ringbench" .)
cd "$root"
exec "$build/ringbench/ringbench" "$@"
