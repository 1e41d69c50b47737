#!/usr/bin/env bash
# The one entry point of the repo benchmark.
#
#   benchmark/run.sh                       every workload, every metric, every check
#   benchmark/run.sh --traced              ... plus the traced pass and the per-layer metrics
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result object
#   benchmark/run.sh --smoke               one tiny traced round of everything (< 15 s after the build)
#   benchmark/run.sh --seed 1 --bless      rewrite golden/seed1.json (benchmark issues only)
#   benchmark/run.sh selfcheck [--runs N]  A/A: two independent sets on this build
#
# Builds the release binaries the campaign workloads drive (`campaign`,
# `berti-serve`, `btrc`, from the repository's own workspace and
# profile) and the benchmark crate, into one target directory, then
# forwards its arguments to the benchmark binary. Writes only into that
# target directory and benchmark/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: stdout carries the results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p berti-harness -p berti-serve -p berti-traces \
    --bin campaign --bin berti-serve --bin btrc >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

bin=$target/release
for b in campaign berti-serve btrc benchmark; do
    if [ ! -x "$bin/$b" ]; then
        echo "run.sh: release binary $bin/$b is missing after the build" >&2
        exit 1
    fi
done
# Cargo just rebuilt whatever was out of date; a source newer than the
# binary built from it now means the build did not see it (clock skew,
# a wrong target directory). Measuring a stale binary is worse than not
# measuring. Cargo's dep-info file lists exactly the binary's sources.
for b in campaign berti-serve btrc; do
    for src in $(sed -e 's/^[^:]*: *//' "$bin/$b.d"); do
        if [ "$src" -nt "$bin/$b" ]; then
            echo "run.sh: $bin/$b is older than $src — stale release binary" >&2
            exit 1
        fi
    done
done

# A fresh scratch directory per invocation; removed on every exit path,
# and any daemon whose pid file is still in it gets a SIGTERM first.
mkdir -p "$here/out"
BENCH_TMP=$(mktemp -d "$here/out/run.XXXXXX")
export BENCH_TMP
child=
cleanup() {
    [ -n "$child" ] && kill -TERM "$child" 2>/dev/null || true
    for f in "$BENCH_TMP"/*/daemon.pid; do
        [ -f "$f" ] && kill -TERM "$(cat "$f")" 2>/dev/null || true
    done
    [ -n "$child" ] && wait "$child" 2>/dev/null || true
    rm -rf "$BENCH_TMP"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

"$bin/benchmark" "$@" &
child=$!
status=0
wait "$child" || status=$?
child=
exit "$status"
