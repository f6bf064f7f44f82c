#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sssp_batch --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, run records and
# spans. The build needs the repository's module one directory above this
# script; without it the build fails and no result is printed.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The build's own output goes to standard error: the last line of
# standard output is the benchmark's verdict.
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
