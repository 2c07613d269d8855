#!/usr/bin/env bash
# The benchmark's one command: build the program under test and the
# benchmark if they are missing or older than their sources, then run
# the benchmark on that `topk` binary. All arguments go to the benchmark
# (see README.md).
#
# Cargo is asked only when something changed, not on every run: outside
# a git checkout `crates/service/build.rs` watches a `.git/HEAD` that
# does not exist, so cargo finds topk-service dirty every time and
# rebuilds it and everything above it (~20 s per run, 92 runs).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds when the caller names one (a
# relative name is relative to the repository root, where we are now);
# otherwise each workspace's own default.
topk="${CARGO_TARGET_DIR:-target}/release/topk"
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/topk-benchmark"

stale() { # <binary> <sources...>: missing, or any source newer
    local bin="$1"
    shift
    [ ! -x "$bin" ] || [ -n "$(find "$@" -newer "$bin" -print -quit)" ]
}

program=(Cargo.toml Cargo.lock crates shims)
if stale "$topk" "${program[@]}"; then
    cargo build --release --offline --quiet --manifest-path Cargo.toml --bin topk >&2
fi
if stale "$bench" "${program[@]}" benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
fi

exec "$bench" --topk "$topk" "$@"
