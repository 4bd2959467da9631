#!/usr/bin/env bash
# Build the benchmark and the root workspace's `report` binary, then
# run workloads, each in a process of its own.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
#
# Without --workload every workload runs (untraced, and traced as well
# under --trace); result documents go to benchmark/out/. With
# --workload (the driver's form) that one workload runs once and its
# result object is the last line of standard output.
#
# Run from the root of the checkout. Both builds share one target
# directory: $CARGO_TARGET_DIR if set, benchmark/target otherwise, so
# the root workspace's own target/ is left alone.
set -euo pipefail

bench="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$bench/target}"
mkdir -p "$CARGO_TARGET_DIR"
CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"

workload=""
args=()
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace)
      case "${2:-}" in
        0) shift 2 ;;
        1) trace=1; shift 2 ;;
        *) trace=1; shift ;;
      esac ;;
    *) args+=("$1"); shift ;;
  esac
done

now() { date +%s.%N; }
t0=$(now)
# Cargo's chatter goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" 1>&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p jungle-bench --bin report 1>&2
build_s=$(awk -v a="$t0" -v b="$(now)" 'BEGIN { printf "%.3f", b - a }')

bin="$CARGO_TARGET_DIR/release/jungle-benchmark"
common=(--report-bin "$CARGO_TARGET_DIR/release/report" --out "$bench/out"
        --build-s "$build_s" --rustc "$(rustc --version)"
        --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)")

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --trace "$trace" "${common[@]}" "${args[@]}"
fi

status=0
for w in $("$bin" --list); do
  "$bin" --workload "$w" --trace 0 "${common[@]}" "${args[@]}" || status=1
  if [ "$trace" = 1 ]; then
    "$bin" --workload "$w" --trace 1 "${common[@]}" "${args[@]}" || status=1
  fi
done
exit $status
