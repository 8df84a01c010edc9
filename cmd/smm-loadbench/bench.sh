#!/usr/bin/env bash
# Builds smm-loadbench and runs it with the given arguments. Run it from
# the repository root: bash cmd/smm-loadbench/bench.sh [flags]
#
# Everything the build and the run write stays under .bench_build/ in the
# repository: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/smm-serve" ]]; then
	echo "bench.sh: run from the repository root (no go.mod and cmd/smm-serve in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/smm-loadbench" build -o "$out/smm-loadbench" .
exec "$out/smm-loadbench" "$@"
