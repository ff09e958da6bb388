#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build writes stays under .bench_build: Go's build cache, and the
# toolchain's telemetry counters, which live in the user's config directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: $root is not a checkout of the repository: the benchmark builds the program under test from its source" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
