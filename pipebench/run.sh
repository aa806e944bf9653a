#!/usr/bin/env bash
# Builds the release `qra` binary and the benchmark from source, then runs
# one workload:
#   bash pipebench/run.sh --workload assert_cli --seed 1 --seconds 10 --trace 0
# Must be started from the repository root. The benchmark binary is built
# from `.bench_src/`, a copy of the crates with span probes written by
# `pipebench/instrument` (see README.md); `qra` is built from the crates as
# they are. Build output goes to stderr so that the JSON result stays the
# last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin qra >&2
cargo build --release --offline --quiet --manifest-path pipebench/instrument/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/qra-pipebench-instrument" . .bench_src >&2
cargo build --release --offline --quiet --manifest-path .bench_src/pipebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/qra-pipebench" --qra "$CARGO_TARGET_DIR/release/qra" "$@"
