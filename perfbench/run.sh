#!/usr/bin/env bash
# Builds the benchmark and the xpdld daemon from this checkout, then
# runs one workload. Every build product, cache and run file stays in
# .bench_build at the root of the checkout.
#
#   bash perfbench/run.sh --workload kernels|bveq|daemon --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
(cd "$root" && go build -o "$out/bin/xpdld" ./cmd/xpdld) >&2
cd "$root"
exec "$out/bin/perfbench" -xpdld "$out/bin/xpdld" -out "$out/run" "$@"
