#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a package of its
# own, beside this script) and the two sibling binaries it spawns, then runs
# the benchmark with the arguments given. Run from the root of a checkout.
set -euo pipefail
here=$(dirname "$0")
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet \
    -p hisvsim-net --bin hisvsim-net -p hisvsim-http --bin hisvsim-http >&2
exec "$CARGO_TARGET_DIR/release/hisvsim-bench" "$@"
