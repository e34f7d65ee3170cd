#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs it:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build at the checkout root. The build never touches the
# network (GOPROXY=off, GOTOOLCHAIN=local); a checkout without the repository
# sources fails to build, and the script exits non-zero without a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$root/benchmark" -o "$out/ladder" .
# Two cores' worth of parallelism on any host, matching the two load
# goroutines, so runs on different machines measure the same shape.
GOMAXPROCS=2 exec "$out/ladder" "$@"
