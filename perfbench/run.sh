#!/usr/bin/env bash
# Builds dwserve and the perfbench binary from the source tree, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-sparse --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --selftest
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, module cache, temp files and binaries.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dwserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dwserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/dwserve" ./cmd/dwserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -dwserve "$out/bin/dwserve" -out "$out" "$@"
