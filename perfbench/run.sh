#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The Go build cache and every file the
# benchmark writes stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
