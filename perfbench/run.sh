#!/usr/bin/env bash
# Builds the SAGE end-to-end benchmark and its saged child from the source
# tree it sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload geo-stream --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, CPU profiles) goes under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/config" "$out/bin"

# Keep the toolchain's caches and config inside the checkout, and never let
# it fetch a different toolchain or module.
export GOCACHE="$out/cache/go-build" GOMODCACHE="$out/cache/mod" GOPATH="$out/cache/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$here" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/saged" sage/cmd/saged) >&2

exec "$out/bin/perfbench" -saged "$out/bin/saged" -out "$out/perfbench" "$@"
