#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root with
# the given arguments; `go run ./bench` does the same with Go's own cache.
# Everything this build writes — the binary, the build cache, temporary
# files — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
# The commit stamp is a nicety of the report; a checkout whose VCS state
# cannot be read must still build.
go build -o "$build/apknn-bench" ./bench 2>"$build/build.log" ||
	go build -buildvcs=false -o "$build/apknn-bench" ./bench
exec "$build/apknn-bench" "$@"
