#!/usr/bin/env bash
# Every CLI byte-diff of the repository: seeded runs must replay byte
# for byte across runs and worker counts, exit with their documented
# codes, and, killed at any crash point, finish on a plain rerun with
# an uninterrupted run's output. Run from anywhere, with no arguments:
#
#	bash scripts/determinism.sh
#
# It builds atmctl and atmfigures once into a temp dir and runs each
# command in a fresh directory of its own, which collects its stdout,
# stderr, exit code and any relative -metrics-out/-trace-out/-csv file.
# Two runs match when `diff -r` finds no difference outside stderr. The
# first failed check stops the script with a non-zero exit.
set -eEuo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'echo "determinism: FAIL at the check after run $runs: $last" >&2' ERR
runs=0
last="go build"
go build -o "$tmp/bin/" ./cmd/atmctl ./cmd/atmfigures
PATH=$tmp/bin:$PATH

# run CMD...: run CMD in a fresh directory and leave its path in $out.
run() {
	runs=$((runs + 1))
	last="$*"
	out=$tmp/run$runs
	mkdir "$out"
	local code=0
	(cd "$out" && "$@" >stdout 2>stderr) || code=$?
	echo "$code" >"$out/code"
}

# same DIR DIR: two runs match, stderr aside.
same() { diff -r -x stderr "$1" "$2"; }

# twice CMD...: two runs of CMD match.
twice() {
	run "$@"
	local first=$out
	run "$@"
	same "$first" "$out"
}

# workers N CMD...: CMD at -workers 1 and at -workers N match.
workers() {
	local n=$1
	shift
	run "$@" -workers 1
	local first=$out
	run "$@" -workers "$n"
	same "$first" "$out"
}

# expect CODE: the last run exited CODE.
expect() {
	local got
	got=$(cat "$out/code")
	[ "$got" = "$1" ] || { echo "determinism: exit $got, want $1" >&2; return 1; }
}

# Faulted procedures quarantine the broken core and exit 3 (partial);
# the tune pair also diffs its metrics and trace exports.
twice atmctl characterize -trials 2 -fault-profile test-floor,broken=1 -fault-seed 7
expect 3
grep -q quarantined "$out/stdout"
twice atmctl tune -fault-profile broken-core -fault-seed 7 -metrics-out metrics.json -trace-out trace.json
expect 3
grep -q quarantined "$out/stdout"

# The control loop's transient trace, CSV export included.
twice atmctl transient -steps 300 -csv trace.csv
expect 0

# Fleet campaigns at any worker count, a cache that serves every job
# of a second run, and the fleet-backed Monte-Carlo study.
workers 8 atmctl fleet -kind montecarlo -n 16 -metrics-out metrics.json -trace-out trace.json
expect 0
twice atmctl fleet -kind tune -n 4 -workers 4 -cache-dir "$tmp/fleet-cache"
expect 0
grep -q '4 cached' "$out/stderr"
workers 8 atmfigures -id ext-montecarlo
expect 0

# Datacenter intake at any worker count, a rerun campaign served from
# the cache, and a broken rack that quarantines without stalling.
workers 8 atmctl dc -racks 2 -chassis 4 -chips-per-chassis 8 -json -metrics-out metrics.json -trace-out trace.json
expect 0
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 4 -cache-dir "$tmp/dc-cache"
ref=$out
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 4 -cache-dir "$tmp/dc-cache"
same "$ref" "$out"
expect 0
grep -q '8 cached' "$out/stderr"
run atmctl dc -racks 1 -chassis 1 -chips-per-chassis 2 -ticks 8 -fault-profile test-floor,broken=8 -fault-seed 5
expect 3
grep -q quarantined "$out/stderr"

# The ops plane: an ops-storm at any worker count, empty ops profiles
# ("none", and a spec that sets only event shapes) identical to a plain
# run, and tenants with nowhere to go shed UNSAFE.
workers 8 atmctl dc -racks 1 -chassis 2 -chips-per-chassis 2 -ticks 32 -tenants 16 -ops-fault-profile ops-storm -json
expect 0
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 2 -ticks 32 -json
ref=$out
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 2 -ticks 32 -json -ops-fault-profile none
same "$ref" "$out"
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 2 -ticks 32 -json \
	-ops-fault-profile flap-ticks=9,grace=1,readmit=7,brownout-frac=0.3,thermal-frac=0.2
same "$ref" "$out"
run atmctl dc -racks 1 -chassis 1 -chips-per-chassis 2 -ticks 10 -tenants 12 -ops-fault-profile chip-deaths=2
expect 3
grep -qw UNSAFE "$out/stdout"

# An 8x tenant overload under the ops-storm at any worker count: the
# placement pass defers most of the queue unscored but still asks every
# breaker, so the open breakers' rejections are diffed too.
workers 8 atmctl dc -racks 1 -chassis 2 -chips-per-chassis 4 -tenants 512 -ticks 256 -ops-fault-profile ops-storm -json
expect 3
grep -qw UNSAFE "$out/stderr"
grep -q '"breaker_rejected":[1-9]' "$out/stdout"

# A cap below its level's idle draw is a hard error before the first
# tick, with or without an ops profile: idle power cannot be shed.
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 4 -ticks 32 -chip-cap 20
expect 1
grep -q 'below the largest chip idle draw' "$out/stderr"
run atmctl dc -racks 1 -chassis 2 -chips-per-chassis 4 -ticks 32 -chip-cap 20 -ops-fault-profile thermals=1
expect 1
grep -q 'below the largest chip idle draw' "$out/stderr"

# Lifetime drift: three years with the sentinel end SAFE after
# re-tunes, a sweep matches at any worker count, and the sentinel-off
# control arm ends UNSAFE.
twice atmctl lifetime -years 3 -seed 1
expect 0
grep -qw SAFE "$out/stdout"
grep -qw retune "$out/stdout"
lifetime=$out
workers 4 atmctl lifetime -years 2 -n 4 -json
expect 3
run atmctl lifetime -years 3 -seed 1 -sentinel-off
expect 3
grep -qw UNSAFE "$out/stdout"
grep -qw UNSAFE "$out/stderr"

# Kill matrices: die at each crash point (exit 137), rerun the same
# command on the same cache, and match an uninterrupted run.
run atmctl fleet -kind montecarlo -n 8 -workers 2
ref=$out
for point in fleet/pre-entry fleet/post-entry; do
	cache=$tmp/crash-${point//\//-}
	run env ATM_CRASH_POINT="$point" atmctl fleet -kind montecarlo -n 8 -workers 1 -cache-dir "$cache"
	expect 137
	run atmctl fleet -kind montecarlo -n 8 -workers 2 -cache-dir "$cache"
	same "$ref" "$out"
done
run env ATM_CRASH_POINT=sentinel/retune-commit atmctl lifetime -years 3 -seed 1 -cache-dir "$tmp/crash-sentinel"
expect 137
run atmctl lifetime -years 3 -seed 1 -cache-dir "$tmp/crash-sentinel"
same "$lifetime" "$out"

echo "determinism: $runs runs, every check passed"
