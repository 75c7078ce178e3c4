#!/usr/bin/env bash
# Builds the perfbench binary and runs it from the repository root; all
# arguments are passed through (see perfbench/README.md). Everything the
# Go toolchain and the benchmark write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/witag-bench/main.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/witag-bench and perfbench)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -out "$build/perfbench" "$@"
