#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example, from the repository root:
#
#   bash perfbench/run.sh --workload flow-cns --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's own config and
# telemetry files live in .bench_build/ at the checkout root; the build
# uses the local toolchain and no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(cd "$root/perfbench" &&
	XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
