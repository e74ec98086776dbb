#!/usr/bin/env bash
# Launcher for the benchmark contract in ../BENCHMARK.json. It keeps every
# build product, Go cache and temporary file under <checkout>/.bench_build so
# a run reads and writes nothing outside its checkout, builds the benchmark
# binary (its own module, see go.mod) and hands it the arguments unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$build/gmbench" .)
exec "$build/gmbench" -root "$root" "$@"
