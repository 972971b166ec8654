#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload scp-dynboth --seed 1 --seconds 20 --trace 0
#
# All build and run output stays under .bench_build/ in the current
# directory. Outside a full checkout (no ../go.mod next to perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
