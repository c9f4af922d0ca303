#!/usr/bin/env bash
# Builds qccdbench and runs it from the repository root with the given
# flags. Go's build cache, temporary files, configuration and telemetry
# stay under bench/out, and the toolchain never downloads anything.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/qccdbench" ./cmd/qccdbench
exec "$out/qccdbench" "$@"
