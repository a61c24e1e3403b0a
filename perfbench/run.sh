#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload lbcast-1e5 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# Go tool's configuration all stay under .bench_build/, so nothing outside
# the checkout is written. The build fails (and the script exits non-zero)
# when the library sources beside perfbench/ are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
)

GOMAXPROCS=2 exec "$out/perfbench" "$@"
