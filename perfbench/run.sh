#!/usr/bin/env bash
# Builds the release `repro` binary and the benchmark from source, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload <batch-repro|serve-warm-zipf|serve-cold-inline|all> \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the
# benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --repro "$target/release/repro" "$@"
