#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the binary, Go's build cache and its module cache all
# live under .bench_build/ at the checkout's root. Run from that root:
#
#   bash benchmark/run.sh --workload uncontended --seed 1 --seconds 30 --trace 0
#
# The benchmark is a module of its own whose go.mod replaces `repro` with the
# parent directory, so in a directory that holds only BENCHMARK.json and
# benchmark/ the build fails and this script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -C "$here" -o "$build/reactive-bench" . >&2
exec "$build/reactive-bench" "$@"
