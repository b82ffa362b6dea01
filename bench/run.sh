#!/usr/bin/env bash
# Builds bfbench from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload paper-fields --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, settings, the binary) stays under .bench_build/
# there, and no module is downloaded: the benchmark module reaches the
# library through a local replace directive.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$build/bfbench" ./cmd/bfbench)
exec "$build/bfbench" "$@"
