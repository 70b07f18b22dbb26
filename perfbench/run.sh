#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload irregular --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=readonly GOPROXY=off GOENV=off GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" "$@"
