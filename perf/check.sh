#!/bin/sh
# Smoke check: run every workload twice with 2-second windows and compare
# the two result files with `perf diff`. Finishes in under 90 s after the
# build. Exits non-zero if a correctness gate fails in either run or a
# count metric differs between them. Timing verdicts are printed but do
# not fail the check: a 2-second window holds two to five heavy ops (their
# rows come out `unresolved`) and the serve median moves by a third from
# one such window to the next on a shared host; gate on timings with
# `--seconds 10` or longer and several runs a side.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet --manifest-path perf/Cargo.toml
run() {
    cargo run --release --quiet --manifest-path perf/Cargo.toml -- "$@"
}
mkdir -p perf/out
run run --seconds 2 --out perf/out/check-a.json >perf/out/check-a.log
run run --seconds 2 --out perf/out/check-b.json >perf/out/check-b.log
status=0
run diff perf/out/check-a.json perf/out/check-b.json || status=$?
# 1 = a timing regressed (advisory here), 3 = a count differs.
[ "$status" -le 1 ]
