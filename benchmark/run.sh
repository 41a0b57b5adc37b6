#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the release `dnsnoise` CLI and
# the benchmark harness from source into one target directory, then hands
# every argument to the harness. The default target directory sits inside
# this package and is called `target`, which git and dnsnoise-lint skip.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --bin dnsnoise >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
