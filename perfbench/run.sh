#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload device-pressure --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) goes under .bench_build at the root of the checkout. The module
# replaces coalqoe with the checkout root, so outside a full checkout
# the build fails and nothing is printed on standard output.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
