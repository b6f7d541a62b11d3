#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from, then runs it with the arguments given.  The go build cache
# lives there too, so nothing is written outside the checkout.
set -euo pipefail
src="$(cd "$(dirname "$0")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/xdaqbench" .)
exec "$build/xdaqbench" "$@"
