#!/usr/bin/env bash
# Builds cmd/mrcc, cmd/mrcc-serve and the benchmark driver from the
# checkout in the current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload cli-15d --seed 1 --seconds 45 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout, and the Go toolchain is kept offline.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mrcc" || ! -d "$root/cmd/mrcc-serve" ]]; then
	echo "perfbench: run from the root of an mrcc checkout (cmd/mrcc and cmd/mrcc-serve not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/mrcc ./cmd/mrcc-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
