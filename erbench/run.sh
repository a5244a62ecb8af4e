#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it, passing every argument through:
#
#   bash erbench/run.sh --workload othello --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache, temporary files) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0
(cd "$root/erbench" && go build -o "$out/erbench" .)
exec "$out/erbench" "$@"
