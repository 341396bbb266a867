#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see README.md.
# Run from the repository root:
#   bash perfbench/run.sh --workload fleet-run --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The process-wide SPLITVM_* overrides would change what is measured.
unset SPLITVM_LAZY SPLITVM_TIER SPLITVM_MEM_LIMIT SPLITVM_DISK_CACHE SPLITVM_COMPILE_WORKERS SPLITVM_FAULTS

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
