#!/usr/bin/env bash
# Offline build, unit tests and a quick run of every workload.
#
#   benchmark/check.sh
#
# Exits nonzero if the build or a test fails, or if any workload fails its
# correctness checks.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --offline --release --manifest-path "$manifest"
cargo test --offline --release --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- \
    --quick --seed 1 --out benchmark/out/quick.json
