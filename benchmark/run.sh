#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (see README.md). Everything the Go toolchain writes — build
# cache, module cache, telemetry — is kept under .bench_build/ at the root of
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
# The commit in the environment header comes from VCS stamping; a checkout
# whose VCS state cannot be read still has to build.
go build -C "$root/benchmark" -o "$build/anyk-benchmark" . 2>/dev/null ||
	go build -C "$root/benchmark" -buildvcs=false -o "$build/anyk-benchmark" .
exec "$build/anyk-benchmark" "$@"
