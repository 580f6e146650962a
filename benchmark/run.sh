#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build writes (the binary
# and Go's caches) goes to .bench_build/ in the checkout, and nothing is
# fetched: the benchmark needs only the Go toolchain and this repository.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchmark" build -buildvcs=false -o "$build/mspr-benchmark" .
cd "$root"
exec "$build/mspr-benchmark" "$@"
