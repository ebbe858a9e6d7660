#!/usr/bin/env bash
# Builds spannerd and the benchmark program from the checkout this script
# lives in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload contacts-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Build output, the Go build cache and the
# span files of traced runs all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"

# Keep the toolchain's caches and config inside the checkout, and never
# reach for the network: the module has no external dependencies.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

# Turn off Go telemetry: in its default mode the go command forks a
# detached child that can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

if [[ ! -f go.mod || ! -d cmd/spannerd ]]; then
  echo "perfbench: run from the root of a checkout that holds cmd/spannerd" >&2
  exit 1
fi

go build -o "$out/bin/spannerd" ./cmd/spannerd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --spannerd "$out/bin/spannerd" --out "$out" "$@"
