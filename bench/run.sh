#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the checkout root
# and runs it there with the arguments given. Go's caches are kept in
# .bench_build too, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C bench -o "$build/lsmbench" .
exec "$build/lsmbench" "$@"
