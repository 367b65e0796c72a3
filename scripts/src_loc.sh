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
# usage: scripts/src_loc.sh [--files N] [repo-root]   (default: this checkout)
#   --files N   print the N largest source files by the same count instead
set -euo pipefail
top=0
if [ "${1:-}" = "--files" ]; then
    top="${2:?--files needs a count}"
    shift 2
fi
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

if [ "$top" -gt 0 ]; then
    mapfile -t files < <(find "$root"/crates/*/src -name '*.rs' | sort)
    count "${files[@]}" | sort -k1,1nr -k2 | head -n "$top" |
        while read -r n file; do printf '%6d  %s\n' "$n" "${file#"$root"/}"; done
    exit 0
fi

total=0 system=0 evaluation=0 figures=0
for crate in "$root"/crates/*/; do
    [ -d "$crate/src" ] || continue
    mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    n=$(count "${files[@]}" | awk '{ s += $1 } END { print s + 0 }')
    name=$(basename "$crate")
    printf '%-18s %6d\n' "$name" "$n"
    case "$name" in
        oaken-eval | oaken-baselines) evaluation=$((evaluation + n)) ;;
        oaken-accel | oaken-figures) figures=$((figures + n)) ;;
        *) system=$((system + n)) ;;
    esac
    total=$((total + n))
done
printf '%-18s %6d\n' 'serving system' "$system" evaluation "$evaluation" \
    'paper figures' "$figures" total "$total"
