#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the build leaves behind stays under
# .bench_build, which .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The benchmark is its own module (benchmark/go.mod) that replaces module mrp
# with the checkout's root; it needs nothing from the network.
env GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
    go build -C benchmark -o "$build/mrpbench" .
exec "$build/mrpbench" "$@"
