#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout too.
XDG_CONFIG_HOME="$out/config" go build -C "$here" -o "$out/benchmark" .
cd "$root"
exec "$out/benchmark" "$@"
