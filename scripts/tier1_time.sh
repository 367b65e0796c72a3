#!/usr/bin/env bash
# Tier-1 wall time, cold and warm — the number a simplification quotes.
#
# Runs the tier-1 command, `cargo build --release && cargo test -q`, in a
# fresh CARGO_TARGET_DIR (cold), then the same command again over the same
# directory (warm), and prints per run its wall time and the passed, failed
# and ignored totals summed over every test binary and doctest run. A run
# whose build or tests fail is reported with the totals cargo got to (it
# stops at the first failing binary) and the tail of its log, and the
# script exits non-zero.
#
# usage: scripts/tier1_time.sh [--dir DIR] [repo-root]
#   --dir DIR   a new or empty directory for the target directory and both
#               runs' logs, kept afterwards (default: a fresh `mktemp -d`,
#               removed on exit)
#   repo-root   the checkout to build (default: this one), e.g. a parent
#               commit exported with `git archive` for a before/after pair
set -euo pipefail
dir=""
if [ "${1:-}" = "--dir" ]; then
    dir="${2:?--dir needs a directory}"
    shift 2
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
if [ -z "$dir" ]; then
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
elif [ -n "$(ls -A "$dir" 2>/dev/null)" ]; then
    echo "$0: --dir $dir is not empty: a cold run needs a fresh target" >&2
    exit 2
else
    mkdir -p "$dir"
fi
export CARGO_TARGET_DIR="$dir/target"

status=0
for run in cold warm; do
    log="$dir/$run.log"
    start=$(date +%s.%N)
    ok=1
    (cd "$root" && cargo build --release && cargo test -q) > "$log" 2>&1 || ok=0
    end=$(date +%s.%N)
    awk -v run="$run" -v start="$start" -v end="$end" -v ok="$ok" '
        /^test result:/ {
            for (i = 2; i <= NF; i++) {
                if ($i ~ /^passed/) passed += $(i - 1)
                if ($i ~ /^failed/) failed += $(i - 1)
                if ($i ~ /^ignored/) ignored += $(i - 1)
            }
        }
        END {
            printf "%-5s %8.1f s   passed %d   failed %d   ignored %d%s\n",
                run, end - start, passed, failed, ignored,
                ok ? "" : "   (FAILED)"
        }
    ' "$log"
    if [ "$ok" = 0 ]; then
        status=1
        tail -n 30 "$log" >&2
    fi
done
exit "$status"
