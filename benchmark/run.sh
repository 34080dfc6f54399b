#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds both benchmark binaries from
# source (a no-op after the first run in a checkout), then hands every
# argument to the end-to-end binary, which starts the traced one itself
# for `--trace 1`. Run it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/gqs_benchmark" "$@"
