#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given, from the root of a checkout. Everything
# the Go toolchain writes (build cache, temporary files, the binary) stays
# under .bench_build in that checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local

# The module in bench/ replaces "repro" with its parent directory, so the
# build fails, and this script with it, where the repository is missing.
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
