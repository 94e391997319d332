#!/usr/bin/env bash
# Builds qagviewd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#	bash qagbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/qagviewd" ./cmd/qagviewd >&2
go -C qagbench build -o "$out/qagbench" . >&2
exec "$out/qagbench" -daemon "$out/qagviewd" -workdir "$out" "$@"
