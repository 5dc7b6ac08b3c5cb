#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, generated traces, span files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
