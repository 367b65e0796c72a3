#!/usr/bin/env bash
# Non-test code lines per crate under crates/*/src: blank lines, `//`
# comment lines (incl. doc comments) and everything from a top-level
# `#[cfg(test)]` to the end of the file are not counted. By convention every
# source file here keeps its `#[cfg(test)] mod tests` last, which is what
# makes the cut-off exact.
#
# usage: scripts/src_loc.sh [repo-root]     (default: this checkout)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

total=0
for crate in "$root"/crates/*/; do
    [ -d "$crate/src" ] || continue
    mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    n=$(count "${files[@]}")
    printf '%-18s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
