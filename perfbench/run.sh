#!/usr/bin/env bash
# Builds cmd/eumdns and the benchmark program from source into .bench_build
# (inside the checkout, Go build cache included) and runs the benchmark:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. It exits non-zero, printing no result,
# when the repository's sources are not there to build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/eumdns" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/eumdns and go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

(cd "$root" && go build -o "$out/eumdns" ./cmd/eumdns) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -eumdns "$out/eumdns" -out "$out" "$@"
