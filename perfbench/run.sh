#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload solve-whole --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
