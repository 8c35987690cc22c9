#!/usr/bin/env bash
# Builds graftperf from source inside the checkout and runs it; every
# argument is passed through. Run from the repository root:
#
#   bash graftperf/run.sh --workload evict-tpcb --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build/graftperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C graftperf -o "$out/graftperf" .
exec "$out/graftperf" "$@"
