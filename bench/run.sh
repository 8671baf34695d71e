#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout that holds this script:
#
#   bash bench/run.sh -workload paper -seed 1 -seconds 20 -trace 0
#
# The binary and the Go build cache live under .bench_build/, so nothing is
# written outside the checkout. The first run compiles the standard library
# into that cache; later runs only relink.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$build"
go build -C bench -o "$build/perf" ./perf
exec "$build/perf" "$@"
