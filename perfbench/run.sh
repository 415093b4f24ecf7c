#!/usr/bin/env bash
# Builds the benchmark and the mpmb-search CLI from the checkout it is
# run in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold_ols_400k --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
  GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/mpmb-search" ./cmd/mpmb-search
exec "$out/perfbench" -cli "$out/mpmb-search" -work "$out" "$@"
