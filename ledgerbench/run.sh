#!/usr/bin/env bash
# Builds the layer-ledger benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash ledgerbench/run.sh --workload q5-interactive --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/ in
# the current directory; nothing is read from or written to the network.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/ledgerbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

# The go command's caches, its telemetry counters (kept under the user
# config dir) and all temporary files stay inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

(cd "$bench_dir" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
