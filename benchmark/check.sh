#!/usr/bin/env bash
# Everything a CI job would run on the benchmark. The observatory package is
# not a member of the root workspace, so `cargo fmt --all`, `cargo clippy
# --workspace` and `cargo test` at the root do not see it; run this before
# committing a change to the package, to BENCHMARK.json, or to an item that
# `observatory/src/api.rs` names.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/observatory/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --quiet --manifest-path "$manifest"
python3 benchmark/check_manifest.py
