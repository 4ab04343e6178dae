#!/usr/bin/env bash
# Build the server binary and the benchmark from source, then run the
# benchmark with this script's arguments, e.g.
#
#   bash ccbench/run.sh --workload fetch --seed 7 --seconds 10 --trace 0
#   bash ccbench/run.sh run --seed 2014 --out results.json
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); both binaries land in its release directory,
# where ccbench finds ccc.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin ccc >&2
cargo build --release --offline --quiet --manifest-path ccbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ccbench" "$@"
