#!/bin/sh
# Builds the benchmark from the sources of the checkout this script sits in
# and runs it with the given arguments, e.g.
#
#   sh benchmark/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and any trace files stay under
# .bench_build at the checkout's root; nothing is fetched over the network.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/mepipe-bench" .) >&2
cd "$root"
exec "$out/mepipe-bench" "$@"
