#!/usr/bin/env bash
# Builds the release `dbs` binary and the benchmark harness from source,
# then runs the harness:
#
#   bash perfbench/run.sh --workload cluster_4d --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build output goes to stderr and to
# $CARGO_TARGET_DIR (default: target/); the harness writes its inputs
# under perfbench/work/ and removes them when it ends.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: $root holds no dbs source tree to build" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p dbs-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/perfbench" --dbs "$target/release/dbs" --work "$root/perfbench/work" "$@"
