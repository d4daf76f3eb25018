#!/usr/bin/env bash
# Builds the release bench-tables binary and the benchmark harness into
# one target directory, then runs the harness with the given arguments:
#
#   benchmark/run.sh [--seed N] [--out FILE]         one set, all workloads
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh compare A.json B.json
#
# The harness looks for bench-tables beside its own executable, so both
# builds share CARGO_TARGET_DIR (default: the repository's target/).
# Build output goes to stderr; stdout carries only the harness's report.
set -euo pipefail

here=$(dirname "$0")
root="$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench-tables >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
