#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload paper144-fast --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build
# files and the binary all stay under .bench_build/ in that directory, so
# the benchmark reads and writes nothing outside the checkout but the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
