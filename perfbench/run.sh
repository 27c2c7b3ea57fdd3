#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload capstorm --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# span files of traced runs all go to .bench_build, so nothing is written
# outside the checkout. The build fails, and the script exits nonzero,
# when the repository the benchmark module points at is not there.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
