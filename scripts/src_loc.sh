#!/usr/bin/env bash
# Non-test code lines per crate under crates/*/src: blank lines, `//`
# comment lines (incl. doc comments) and everything from a top-level
# `#[cfg(test)]` to the end of the file are not counted. By convention every
# source file here keeps its `#[cfg(test)] mod tests` last, which is what
# makes the cut-off exact.
#
# After the per-crate rows come three group subtotals — the serving system
# (the eight crates that may not depend on the other two groups; CI checks
# it), evaluation (`eval`, `baselines`) and paper figures (`accel`,
# `figures`) — then the total.
#
# usage: scripts/src_loc.sh [--files N | --unsafe | --against REV] [repo-root]
#                                               (default: this checkout)
#   --files N      print the N largest source files by the same count instead
#   --unsafe       print the `unsafe` keywords per file over the same lines
#                  (most first, files without one left out), then the total:
#                  the unsafe-site ledger
#   --against REV  the same rows for the revision REV of repo-root (exported
#                  with `git archive` into a temporary directory) and for
#                  the checkout itself, each row as `REV → checkout (delta)`:
#                  the before/after a simplification quotes. A crate on one
#                  side only counts 0 on the other.
set -euo pipefail
top=0 unsafe=0 against=""
case "${1:-}" in
    --files)
        top="${2:?--files needs a count}"
        shift 2
        ;;
    --unsafe)
        unsafe=1
        shift
        ;;
    --against)
        against="${2:?--against needs a revision}"
        shift 2
        ;;
esac
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

# Prints "<lines> <file>" per input file.
count() {
    awk '
        function flush() { if (file != "") print n + 0, file }
        FNR == 1 { flush(); file = FILENAME; n = 0; in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { flush() }
    ' "$@"
}

# Prints "<unsafe keywords> <file>" per input file, over the lines
# `count` counts.
unsafe_sites() {
    awk '
        function flush() { if (file != "") print n + 0, file }
        FNR == 1 { flush(); file = FILENAME; n = 0; in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*\/\// { next }
        {
            k = split($0, words, /[^[:alnum:]_]+/)
            for (i = 1; i <= k; i++) n += words[i] == "unsafe"
        }
        END { flush() }
    ' "$@"
}

if [ "$unsafe" -eq 1 ]; then
    mapfile -t files < <(find "$root"/crates/*/src -name '*.rs' | sort)
    unsafe_sites "${files[@]}" | awk '$1 > 0' | sort -k1,1nr -k2 |
        awk -v root="$root/" '
            { printf "%6d  %s\n", $1, substr($2, length(root) + 1); total += $1 }
            END { printf "%6d  total\n", total }
        '
    exit 0
fi

if [ "$top" -gt 0 ]; then
    mapfile -t files < <(find "$root"/crates/*/src -name '*.rs' | sort)
    count "${files[@]}" | sort -k1,1nr -k2 | head -n "$top" |
        while read -r n file; do printf '%6d  %s\n' "$n" "${file#"$root"/}"; done
    exit 0
fi

# Prints "<name>\t<lines>\t<crate|sum>" per crate of the checkout at $1,
# then the three group subtotals and the total.
rows() {
    local total=0 system=0 evaluation=0 figures=0 crate files n name
    for crate in "$1"/crates/*/; do
        [ -d "$crate/src" ] || continue
        mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
        [ "${#files[@]}" -gt 0 ] || continue
        n=$(count "${files[@]}" | awk '{ s += $1 } END { print s + 0 }')
        name=$(basename "$crate")
        printf '%s\t%d\tcrate\n' "$name" "$n"
        case "$name" in
            oaken-eval | oaken-baselines) evaluation=$((evaluation + n)) ;;
            oaken-accel | oaken-figures) figures=$((figures + n)) ;;
            *) system=$((system + n)) ;;
        esac
        total=$((total + n))
    done
    printf '%s\t%d\tsum\n' 'serving system' "$system" evaluation "$evaluation" \
        'paper figures' "$figures" total "$total"
}

if [ -n "$against" ]; then
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git -C "$root" archive "$against" -- crates | tar -x -C "$base"
    # Crates in order of first appearance, then the sums.
    awk -F'\t' '
        !(($1, $3) in seen) { seen[$1, $3] = 1; order[$3, ++n[$3]] = $1 }
        NR == FNR { before[$1] = $2; next }
        { after[$1] = $2 }
        END {
            for (k = 1; k <= 2; k++) {
                kind = k == 1 ? "crate" : "sum"
                for (i = 1; i <= n[kind]; i++) {
                    name = order[kind, i]
                    b = before[name] + 0
                    a = after[name] + 0
                    printf "%-18s %6d → %6d  (%+d)\n", name, b, a, a - b
                }
            }
        }
    ' <(rows "$base") <(rows "$root")
    exit 0
fi

rows "$root" | awk -F'\t' '{ printf "%-18s %6d\n", $1, $2 }'
