#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig2 --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and datadir stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
rev=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	rev=$(git -C "$root" rev-parse HEAD)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/work" --rev "$rev" "$@"
