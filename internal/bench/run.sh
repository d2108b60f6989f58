#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash internal/bench/run.sh --workload cnn-fp16 --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache and the binary) stay in .bench_build/ at
# the root. Without the fidelity module around it the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep everything the go command writes (build cache, temporary work
# directories, telemetry counters) inside the checkout, and never fetch.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/internal/bench" && go build -o "$out/fidelity-bench" .)
exec "$out/fidelity-bench" "$@"
