#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload inject-accel --seed 2019 --seconds 35 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build in the current directory, so a run writes nothing outside
# the checkout. Build output goes to stderr; stdout is the benchmark's.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
