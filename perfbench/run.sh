#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sp-holdspan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build
# cache and the go command's own configuration and telemetry included,
# goes under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git rev-parse --short=12 HEAD)
	git diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
