#!/usr/bin/env bash
# Build the kizzle-serve daemon and the benchmark from source, then run
# the benchmark. Run from the repository root; arguments pass through:
#   bash crates/perfbench/run.sh --workload scan_mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
target="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr so the last stdout line stays the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --target-dir "$target" -p kizzle-serve --bin kizzle-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
exec "$target/release/perfbench" --serve-bin "$target/release/kizzle-serve" "$@"
