#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory, that
# imports the repo's packages through a replace directive) and runs it
# from the root of the checkout. Everything the build writes, the Go
# build cache included, goes under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/qav-bench" .) >&2
cd "$root"
exec "$build/qav-bench" "$@"
