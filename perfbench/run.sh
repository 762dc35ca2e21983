#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of the repository:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ at the root; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
