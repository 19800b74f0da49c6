#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it from the
# repository root, passing every argument through (see benchmark/README.md).
# The Go build cache lives in .bench_build too, and the toolchain is used
# as installed: nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$build/univistor-bench" .)
exec "$build/univistor-bench" "$@"
