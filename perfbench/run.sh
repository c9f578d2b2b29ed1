#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rounds --seed 1 --seconds 25 --trace 0
#
# Every build artefact (Go build cache, the binary) goes to .bench_build/ at
# the root, so nothing outside the checkout is written.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)

rev=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
BENCH_GIT_REV="$rev" exec "$out/perfbench" "$@"
