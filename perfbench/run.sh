#!/usr/bin/env bash
# Builds the release `schedule` and `malsd` binaries of the repository and
# the benchmark itself, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default `.bench_build`); run outputs go to `.bench_out`.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p mals-experiments --bin schedule --bin malsd
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
