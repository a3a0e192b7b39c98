#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload scaling-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, scratch
# directories and trace files all stay under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it. Without the repository's
# sources next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
