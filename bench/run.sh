#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it. Every Go
# cache and temp directory is pointed inside the checkout, so a run reads
# and writes nothing outside it. Arguments are passed through; see
# bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/rknnt-e2e" .)
exec "$build/rknnt-e2e" -root "$root" "$@"
