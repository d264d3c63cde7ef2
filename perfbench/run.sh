#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload hosp-50k --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and trace file goes under .bench_build at the
# repository root, so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --rev "$rev" "$@"
