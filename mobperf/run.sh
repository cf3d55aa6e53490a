#!/usr/bin/env bash
# Builds the mobperf benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash mobperf/run.sh --workload query-wide --seed 1 --seconds 40 --trace 0
#
# The build cache, the Go tool's own state, the binary, the cluster's data
# files and the trace and profile outputs all stay under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$root/mobperf" -o "$out/bin/mobperf" .
exec "$out/bin/mobperf" --root "$root" --commit "$commit" "$@"
