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
# that is meant to move them is not an A/B of speed), unless
# --schedule-may-change says the change moves them by design. Prints, per workload
# and metric of BENCHMARK.json — the end-to-end ones at `--trace 0`, the
# per-layer ones at `--trace 1`, so a claimed gain is committed with its
# explanation from the same alternating discipline: each side's median and
# quartiles, the ratio of medians, how many pairs the change won, and a
# verdict — the ROADMAP's claim rule as a column:
#   equal       every seed's change value equals its parent value — a
#               deterministic metric (a tick count, a byte count, a share of
#               tokens) the change left where it was
#   gain        the change won >= 9/10 of the pairs and its median is better
#               than the parent's by more than the parent's interquartile range
#   worse       the change's median is worse than the parent's by more than
#               the metric's BENCHMARK.json bound (a share of the parent's median)
#   unresolved  the parent's interquartile range is wider than that bound
#   within      none of these
# Per-layer metrics have no bound: their verdict is `equal`, `gain` or `—`.
#
# usage: scripts/ab_pairs.sh [--dir DIR] [--seconds S] [--trace 0|1] [--schedule-may-change] <parent-rev> [pairs=10] [workload...]
#   --dir DIR     where the two exports, their builds and results.tsv go
#                 (default: a fresh `mktemp -d`; an existing DIR is reused,
#                 so a second invocation only rebuilds what changed)
#   --seconds S   run length per side and seed (default: BENCHMARK.json's
#                 run_seconds)
#   --trace T     forwarded to `run` (default 0): 0 times the end-to-end
#                 metrics, 1 the traced replay and the per-layer probes;
#                 results go to results.tsv / results.trace1.tsv
#   --schedule-may-change
#                 for a change that moves the schedule by design (a page
#                 layout that preempts at other ticks): a per-seed digest
#                 mismatch prints `digest differs` (per seed and in the
#                 summary) instead of failing; both digests go to
#                 digests.tsv / digests.trace1.tsv. A run that prints no
#                 digest or fails the bench output check still fails
#   workload...   default: every workload of BENCHMARK.json
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="" seconds="" trace=0 may_change=0
while [ $# -gt 0 ]; do
    case "$1" in
        --dir) dir="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --schedule-may-change) may_change=1; shift ;;
        *) break ;;
    esac
done
if [ $# -lt 1 ] || [ "${1#-}" != "$1" ] || { [ "$trace" != 0 ] && [ "$trace" != 1 ]; }; then
    echo "usage: $0 [--dir DIR] [--seconds S] [--trace 0|1] [--schedule-may-change] <parent-rev> [pairs=10] [workload...]" >&2
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

if [ "$trace" = 0 ]; then suffix=""; else suffix=".trace$trace"; fi
results="$dir/results$suffix.tsv" digests="$dir/digests$suffix.tsv"
: >"$results"
: >"$digests"
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        declare -A digest=()
        for side in "${order[@]}"; do
            line="$(run_side "$side" "$workload" "$seed")"
            digest[$side]="${line%%$'\t'*}"
            printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "${line#*$'\t'}" >>"$results"
        done
        if [ -z "${digest[parent]}" ] || [ -z "${digest[change]}" ]; then
            echo "ab_pairs: $workload seed $seed: a run printed no digest (parent '${digest[parent]}', change '${digest[change]}')" >&2
            exit 1
        fi
        same="digest ${digest[parent]}"
        if [ "${digest[parent]}" != "${digest[change]}" ]; then
            if [ "$may_change" = 0 ]; then
                echo "ab_pairs: $workload seed $seed: output digests differ (parent '${digest[parent]}', change '${digest[change]}')" >&2
                exit 1
            fi
            same="digest differs: parent ${digest[parent]}, change ${digest[change]}"
        fi
        printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "${digest[parent]}" "${digest[change]}" >>"$digests"
        echo "ab_pairs: $workload seed $seed done (${order[0]} first, $same)"
    done
done

python3 - "$root/BENCHMARK.json" "$results" "$trace" "$digests" <<'EOF'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
metrics = bench["end_to_end" if sys.argv[3] == "0" else "per_layer"]
differs = {}  # workload -> [seeds whose digests differ]
for line in open(sys.argv[4]):
    workload, seed, parent, change = line.rstrip("\n").split("\t")
    differs.setdefault(workload, [])
    if parent != change:
        differs[workload].append(int(seed))
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
def verdict(metric, p, c, wins, pairs):
    # `better`: how far the change's median beats the parent's.
    better = (c[1] - p[1]) if metric["better"] == "higher" else (p[1] - c[1])
    iqr = p[2] - p[0]
    if 10 * wins >= 9 * pairs and better > iqr:
        return "gain"
    if "bound" not in metric:
        return "—"
    if -better > metric["bound"] * abs(p[1]):
        return "worse"
    if iqr > metric["bound"] * abs(p[1]):
        return "unresolved"
    return "within"
for workload in dict.fromkeys(w for w, _ in runs):
    pairs = len(next(iter(runs[(workload, metrics[0]['name'])].values())))
    moved = differs.get(workload, [])
    print(f"\n{workload}: {pairs} pairs" + (f", digest differs on {len(moved)}/{pairs} seeds {moved}" if moved else ""))
    print(f"  {'metric':34s} {'parent q1/median/q3':>38s} {'change q1/median/q3':>38s} {'ratio':>7s}  {'verdict':10s} wins")
    for metric in metrics:
        sides = runs[(workload, metric["name"])]
        parent, change = sides["parent"], sides["change"]
        higher = metric["better"] == "higher"
        wins = sum((change[s] > parent[s]) if higher else (change[s] < parent[s]) for s in parent)
        ties = sum(change[s] == parent[s] for s in parent)
        p, c = quartiles(list(parent.values())), quartiles(list(change.values()))
        ratio = c[1] / p[1] if p[1] else float("nan")
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)
        judged = "equal" if ties == len(parent) else verdict(metric, p, c, wins, len(parent))
        print(f"  {metric['name']:34s} {fmt(p):>38s} {fmt(c):>38s} {ratio:7.3f}  {judged:10s} {wins}/{len(parent)}" + (f" ({ties} ties)" if ties else ""))
EOF
