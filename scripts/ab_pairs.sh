#!/usr/bin/env bash
# Alternating parent/change pairs of the serving benchmark — the ROADMAP's
# "no claimed gain without >= 10 alternating pairs" rule as one command.
#
# Exports <parent-rev> and the working tree (tracked and untracked files,
# ignored ones left out) into two directories, each with its own
# CARGO_TARGET_DIR, builds bench/ with `--features simd` in both, then for
# seed s = 1..pairs runs
#   run --workload W --seed s --seconds S --trace T
# on both sides, alternating which side goes first. Per-seed output digests
# must agree between the sides (the script fails if they do not — a change
# that is meant to move them is not an A/B of speed). Prints, per workload
# and metric of BENCHMARK.json — the end-to-end ones at `--trace 0`, the
# per-layer ones at `--trace 1`, so a claimed gain is committed with its
# explanation from the same alternating discipline: each side's median and
# quartiles, the ratio of medians, and how many pairs the change won.
#
# usage: scripts/ab_pairs.sh [--dir DIR] [--seconds S] [--trace 0|1] <parent-rev> [pairs=10] [workload...]
#   --dir DIR     where the two exports, their builds and results.tsv go
#                 (default: a fresh `mktemp -d`; an existing DIR is reused,
#                 so a second invocation only rebuilds what changed)
#   --seconds S   run length per side and seed (default: BENCHMARK.json's
#                 run_seconds)
#   --trace T     forwarded to `run` (default 0): 0 times the end-to-end
#                 metrics, 1 the traced replay and the per-layer probes;
#                 results go to results.tsv / results.trace1.tsv
#   workload...   default: every workload of BENCHMARK.json
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="" seconds="" trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --dir) dir="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 1 ] || [ "${1#-}" != "$1" ] || { [ "$trace" != 0 ] && [ "$trace" != 1 ]; }; then
    echo "usage: $0 [--dir DIR] [--seconds S] [--trace 0|1] <parent-rev> [pairs=10] [workload...]" >&2
    exit 2
fi
rev="$1" pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
json() { python3 -c "import json,sys; b=json.load(open('$root/BENCHMARK.json')); print($1)"; }
[ -n "$seconds" ] || seconds="$(json "b['run_seconds']")"
if [ $# -gt 0 ]; then workloads=("$@"); else mapfile -t workloads < <(json "'\n'.join(w['name'] for w in b['workloads'])"); fi
[ -n "$dir" ] || dir="$(mktemp -d)"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
echo "ab_pairs: $rev vs working tree, $pairs pairs x ${workloads[*]}, ${seconds}s runs, --trace $trace, in $dir"

# Export both sides (sources only; each side's target/ survives a re-run).
for side in parent change; do
    mkdir -p "$dir/$side"
    find "$dir/$side" -mindepth 1 -maxdepth 1 ! -name target ! -name out -exec rm -rf {} +
done
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
(cd "$root" && git ls-files -z -co --exclude-standard |
    tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -x -C "$dir/change"
for side in parent change; do
    echo "ab_pairs: building $side"
    CARGO_TARGET_DIR="$dir/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/bench/Cargo.toml" --features simd
done

# One run: prints "<digest>\t<result json>" for (side, workload, seed).
run_side() {
    local side="$1" workload="$2" seed="$3" out
    out="$(cd "$dir/$side" && "$dir/$side/target/release/oaken-servebench" run \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$dir/$side/out")"
    printf '%s\t%s\n' "$(awk '$1 == "info" && $3 == "digest" { print $4 }' <<<"$out")" "$(tail -n 1 <<<"$out")"
}

if [ "$trace" = 0 ]; then results="$dir/results.tsv"; else results="$dir/results.trace$trace.tsv"; fi
: >"$results"
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        declare -A digest=()
        for side in "${order[@]}"; do
            line="$(run_side "$side" "$workload" "$seed")"
            digest[$side]="${line%%$'\t'*}"
            printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "${line#*$'\t'}" >>"$results"
        done
        if [ "${digest[parent]}" != "${digest[change]}" ] || [ -z "${digest[parent]}" ]; then
            echo "ab_pairs: $workload seed $seed: output digests differ (parent '${digest[parent]}', change '${digest[change]}')" >&2
            exit 1
        fi
        echo "ab_pairs: $workload seed $seed done (${order[0]} first, digest ${digest[parent]})"
    done
done

python3 - "$root/BENCHMARK.json" "$results" "$trace" <<'EOF'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
metrics = bench["end_to_end" if sys.argv[3] == "0" else "per_layer"]
runs = {}  # (workload, metric) -> side -> {seed: value}
for line in open(sys.argv[2]):
    workload, seed, side, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0, (workload, seed, side, result)
    for name, metric in result["metrics"].items():
        runs.setdefault((workload, name), {}).setdefault(side, {})[int(seed)] = metric["value"]
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3
for workload in dict.fromkeys(w for w, _ in runs):
    print(f"\n{workload}: {len(next(iter(runs[(workload, metrics[0]['name'])].values())))} pairs")
    print(f"  {'metric':34s} {'parent q1/median/q3':>38s} {'change q1/median/q3':>38s} {'ratio':>7s}  wins")
    for metric in metrics:
        sides = runs[(workload, metric["name"])]
        parent, change = sides["parent"], sides["change"]
        higher = metric["better"] == "higher"
        wins = sum((change[s] > parent[s]) if higher else (change[s] < parent[s]) for s in parent)
        ties = sum(change[s] == parent[s] for s in parent)
        p, c = quartiles(list(parent.values())), quartiles(list(change.values()))
        ratio = c[1] / p[1] if p[1] else float("nan")
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)
        print(f"  {metric['name']:34s} {fmt(p):>38s} {fmt(c):>38s} {ratio:7.3f}  {wins}/{len(parent)}" + (f" ({ties} ties)" if ties else ""))
EOF
