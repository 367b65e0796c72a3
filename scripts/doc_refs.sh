#!/usr/bin/env bash
# Doc-reference check: the docs name only what exists.
#
# Fails when README.md or ARCHITECTURE.md
#   * names, inside backticks, a repo path — a token that contains a `/`
#     and ends in .rs, .sh, .md, .json, .toml, .tsv or .yml — that no
#     tracked file ends with on whole path components (so
#     `oaken-core/src/kernel.rs` and `tests/prefix_props.rs` resolve; a
#     `*` in the token matches as a shell glob), or
#   * cites a "ROADMAP item N" that ROADMAP.md has no numbered item for
#     (a line starting `N. **` or `N. *`), or
#   * names, inside backticks, a unit test `a::tests::f` that no `fn f`
#     after the `#[cfg(test)]` of a tracked `a.rs` or `a/mod.rs` under
#     crates/*/src declares, or
#   * names, inside backticks, `t::f` where a tracked `t.rs` sits in a
#     `tests/` directory, and neither such a file nor a `t.rs` under
#     crates/*/src (a module of the same name, as `pipeline::decode_row`
#     is) declares `fn f`.
# Fenced code blocks are skipped: only inline references are checked.
#
# Out of scope, on purpose:
#   * bench/README.md: bench/ is the benchmark's own tree, which a change
#     to the system may not edit, and which its next rewrite brings up to
#     date; a check that failed on it could not be mended by the change it
#     failed.
#   * Bare test names: a backticked `snake_case` name with no path cannot
#     be told from a metric name such as `kv_read_bytes_per_token` without
#     resolving it against the test suite.
#
# usage: scripts/doc_refs.sh [repo-root]   (default: this checkout)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"
docs=(README.md ARCHITECTURE.md)
tracked="$(git ls-files)"
status=0

# Inline code spans of a markdown file, one token per line, fences dropped.
tokens() {
    perl -0777 -ne 's/^```.*?^```[^\n]*$//gms; while (/`([^`]+)`/g) { print "$_\n" for split /\s+/, $1 }' "$1"
}

# Whether any of the files named on stdin declares `fn $1`, counting only
# lines after its first `#[cfg(test)]` when $2 is `tests`.
declares() {
    local file body
    while IFS= read -r file; do
        [ -n "$file" ] || continue
        body=$(cat "$file")
        if [ "$2" = tests ]; then
            body=$(sed -n '/^[[:space:]]*#\[cfg(test)\]/,$p' <<< "$body")
        fi
        grep -qE "\bfn $1\b" <<< "$body" && return 0
    done
    return 1
}

for doc in "${docs[@]}"; do
    paths=$(tokens "$doc" |
        grep -oE '[A-Za-z0-9_.*/-]*/[A-Za-z0-9_.*-]*\.(rs|sh|md|json|toml|tsv|yml)([^A-Za-z0-9_]|$)' |
        sed -E 's/[^A-Za-z0-9_]$//' | sort -u || true)
    while IFS= read -r ref; do
        [ -n "$ref" ] || continue
        found=0
        while IFS= read -r file; do
            # shellcheck disable=SC2254 # $ref is matched as a glob
            case "/$file" in
                */$ref) found=1; break ;;
            esac
        done <<< "$tracked"
        if [ "$found" = 0 ]; then
            echo "$doc: \`$ref\` names no tracked file" >&2
            status=1
        fi
    done <<< "$paths"

    while read -r module name; do
        files=$(grep -E "^crates/[^/]+/src/(.*/)?$module(\.rs|/mod\.rs)$" <<< "$tracked" || true)
        if ! declares "$name" tests <<< "$files"; then
            echo "$doc: \`$module::tests::$name\` names no unit test" >&2
            status=1
        fi
    done < <(tokens "$doc" | perl -ne 'print "$1 $2\n" if /\b([a-z][a-z0-9_]*)::tests::([a-z_][a-z0-9_]*)/' | sort -u)

    while read -r file name; do
        suite=$(grep -E "(^|/)tests/$file\.rs$" <<< "$tracked" || true)
        [ -n "$suite" ] || continue
        module=$(grep -E "^crates/[^/]+/src/(.*/)?$file\.rs$" <<< "$tracked" || true)
        if ! declares "$name" all <<< "$suite"$'\n'"$module"; then
            echo "$doc: \`$file::$name\` names no test in $(paste -sd ' ' <<< "$suite")" >&2
            status=1
        fi
    done < <(tokens "$doc" | perl -ne 'print "$1 $2\n" if /^([a-z][a-z0-9_]*)::([a-z_][a-z0-9_]*)(?![A-Za-z0-9_]|::)/' | sort -u)

    items=$(perl -0777 -ne 'print "$1\n" while /ROADMAP\s+item\s+([0-9]+)/g' "$doc" | sort -un)
    for n in $items; do
        if ! grep -qE "^$n\. \*" ROADMAP.md; then
            echo "$doc: cites ROADMAP item $n, which ROADMAP.md does not number" >&2
            status=1
        fi
    done
done

if [ "$status" = 0 ]; then
    echo "doc references resolve (${docs[*]})"
fi
exit "$status"
