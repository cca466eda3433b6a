#!/usr/bin/env bash
# Build the `banks` server and this benchmark from source, then run the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload small-zipf --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/); cargo's own output goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
bin="$CARGO_TARGET_DIR/release"

# crates/util's build script watches `.git/HEAD`; where there is no
# `.git`, cargo rebuilds on every call. So build only when a binary is
# missing or a source file is newer than it.
stale() {
    [ ! -x "$1" ] || [ -n "$(find Cargo.toml Cargo.lock crates perfbench/Cargo.toml \
        perfbench/Cargo.lock perfbench/src -newer "$1" -print -quit 2>/dev/null)" ]
}
if stale "$bin/banks"; then
    cargo build --release --quiet --offline -p banks-cli --bin banks >&2
fi
if stale "$bin/perfbench"; then
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
fi
exec "$bin/perfbench" --server-bin "$bin/banks" "$@"
