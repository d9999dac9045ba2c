#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given flags, for example
#
#   bash benchmark/run.sh --workload whole-anneal --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache and the Go tool's own state all go under
# .bench_build/ at the checkout root, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
