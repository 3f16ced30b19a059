#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload fit-sparse --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary, the generated inputs and the span dumps
# all live under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
