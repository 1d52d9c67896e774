#!/bin/bash
# The driver's entry point: build the benchmark from source inside the
# checkout (build cache and binary under .bench_build/, nothing written
# outside), then run it with the driver's arguments from the checkout's
# root. Fails before printing anything where the repository is missing.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/rtbench" .)
cd "$root"
exec "$build/rtbench" "$@"
