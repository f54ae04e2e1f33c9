#!/usr/bin/env bash
# Builds the benchmark and the test binaries it reads kernel benchmarks
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build writes (Go
# build cache, temporary files, binaries, digests) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go -C perfbench build -o "$out/bin/perfbench" . >&2
go test -c -o "$out/bin/sim.test" ./internal/sim >&2
go test -c -o "$out/bin/vscc.test" . >&2

exec "$out/bin/perfbench" --root "$root" --bins "$out/bin" --out "$out/digest" "$@"
