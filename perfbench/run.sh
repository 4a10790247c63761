#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# and run artefact stays under .bench_build in the directory this is run from
# (the checkout root); arguments pass through to the benchmark binary.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp"
# The go command keeps telemetry and settings under the user config dir.
export XDG_CONFIG_HOME="$PWD/$out/config" XDG_CACHE_HOME="$PWD/$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOMAXPROCS="$(nproc)"

(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
