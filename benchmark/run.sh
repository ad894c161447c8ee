#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given:
#
#   bash benchmark/run.sh --workload io-fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# toolchain telemetry) stays under .bench_build/ in the checkout. With a
# warm cache the build step is a no-op of about 0.1 s.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local \
	go build -o "$build/hta-benchmark" ./benchmark
exec "$build/hta-benchmark" "$@"
