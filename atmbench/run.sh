#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash atmbench/run.sh --workload charact-pop --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced run's span files all stay
# under .bench_build/ at the root of the checkout. The build fails, and
# the script exits non-zero without a result, when the repository's
# sources are missing.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"

# Every file the go command writes (build cache, temporary work files,
# config, telemetry) stays under $out.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

bin="$out/atmbench"
tmp="$bin.$$"
if ! (cd "$bench" && go build -o "$tmp" .); then
	rm -f "$tmp"
	echo "atmbench: build failed" >&2
	exit 2
fi
mv -f "$tmp" "$bin"
exec "$bin" --trace-dir "$out/traces" "$@"
