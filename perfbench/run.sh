#!/usr/bin/env bash
# Builds dpmd and the benchmark driver from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload plan_zipf --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans stay in
# .bench_build/ inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/dpmd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a dpm checkout (cmd/dpmd not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's config and telemetry files here.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/dpmd" ./cmd/dpmd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dpmd "$out/dpmd" --spans "$out/spans" "$@"
