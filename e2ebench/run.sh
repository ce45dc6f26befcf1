#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, e.g.
#
#   bash e2ebench/run.sh --workload svc-mixed --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, binary, span files) stays
# under .bench_build/ in the current directory; the toolchain never
# reaches the network.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
