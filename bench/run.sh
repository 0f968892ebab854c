#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fleet-micro --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives in .bench_build/ too, so a fresh checkout compiles
# everything once and later runs only re-link when the sources changed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/olympian-bench" .
exec "$out/olympian-bench" "$@"
