#!/usr/bin/env bash
# Same bytes, batch: run every batch query of two `topk` builds over one
# file and diff their stdout.
#
#   scripts/cli_identity.sh <parent-topk> <change-topk> <file.tsv> [topk flags...]
#
# Runs `count --k 10 --r 1`, `count --k 10 --r 3`, `count --k 10 --approx 0.1`,
# `rank --k 10` and `thresh --threshold T` at `--threads 1` and `2` under
# both binaries; trailing flags (`--name-field author`, `--max-df 30`, ...)
# go to every run. T is the weight of the last entry the parent's
# `rank --k 10` prints. `# profile` lines carry timings and are left out,
# as the benchmark's own repetition check leaves them out. Prints one
# line per query; exits 1 when any stdout differs or is empty.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent="$1"
change="$2"
file="$3"
shift 3

answer() { # <topk> <query> <query flags...>: stdout without timings
    local bin="$1" query="$2"
    shift 2
    "$bin" "$query" "$file" "$@" 2>/dev/null | grep -v '^# profile' || true
}

threshold="$(answer "$parent" rank --k 10 "$@" | awk -F'\t' '/^[0-9]/ { t = $2 } END { print t + 0 }')"

differing=0
for threads in 1 2; do
    while read -r query flags; do
        # shellcheck disable=SC2086  # $flags is a word list by design
        want="$(answer "$parent" "$query" $flags --threads "$threads" "$@")"
        got="$(answer "$change" "$query" $flags --threads "$threads" "$@")"
        # An empty answer is a failed run, not an agreement.
        if [ -n "$want" ] && [ "$want" = "$got" ]; then
            echo "same    $query $flags --threads $threads"
        else
            echo "DIFFER  $query $flags --threads $threads"
            differing=$((differing + 1))
        fi
    done <<EOF
count --k 10 --r 1
count --k 10 --r 3
count --k 10 --approx 0.1
rank --k 10
thresh --threshold $threshold
EOF
done

if [ "$differing" -ne 0 ]; then
    echo "$differing of 10 queries differ between $parent and $change" >&2
    exit 1
fi
echo "no diff: 10 queries, threads 1 and 2"
