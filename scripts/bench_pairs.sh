#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against a change, run by run.
#
#   scripts/bench_pairs.sh --parent REV [--change REV] --workloads W[:N],... \
#       --pairs N --seconds S [--trace] [--pr N | --out FILE] [--work-dir DIR]
#
# Each side is exported with `git archive` (the change defaults to the
# working tree as it is) and builds `evopt-benchmark` through
# `benchmark/run.sh` into its own CARGO_TARGET_DIR. Then, for every pair
# i = 1..N (seed i) and every workload, the parent and the change run once
# each, `--seconds S --trace 0`; odd seeds run the parent first, even seeds
# the change. A workload written `W:N` gets N pairs instead of `--pairs`.
# `--trace` adds one traced run per side and workload (seed 1) after the
# pairs, for the per-layer and exact counts.
#
# Every run's last stdout line (one JSON object) is kept. The record goes to
# `BENCH_PR<N>.json` at the repo root (`--pr N`) or to `--out FILE`: both
# commits, `nproc`, `rustc -V`, the protocol and every run. The table on
# stdout gives, per workload and metric, parent → change as median
# [min, max], the pairs the change reads better in, and a verdict:
# "unresolved" when the medians differ by no more than the parent's
# interquartile range, "better" or "worse" otherwise, and "WORSE > bound"
# when a metric with a bound in BENCHMARK.json is worse by more than it.
#
# Needs bash, git, cargo, jq and python3; nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

parent="" change="" workloads="" pairs=4 seconds=15 trace=0 out="" work=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --change) change=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=1; shift ;;
        --pr) out="BENCH_PR$2.json"; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --work-dir) work=$2; shift 2 ;;
        *) echo "bench_pairs: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$parent" ] || [ -z "$workloads" ] || [ -z "$out" ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
work=${work:-${TMPDIR:-/tmp}/evopt-bench-pairs}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# Export one side into $work/<name>/src; its build goes to $work/<name>/target.
export_side() {
    local name=$1 rev=$2 dir=$work/$1
    rm -rf "$dir/src" "$dir/out"
    mkdir -p "$dir/src" "$dir/out"
    if [ -n "$rev" ]; then
        git archive "$rev" | tar -x -C "$dir/src"
    else
        # The working tree: tracked files as they are, plus untracked ones
        # that are not ignored.
        git ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
            tar -c --null -T - | tar -x -C "$dir/src"
    fi
}

# One run of `benchmark/run.sh` on a side; prints its last stdout line.
run_side() {
    local name=$1 workload=$2 seed=$3 secs=$4 traced=$5 dir=$work/$1
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/target" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$secs" --trace "$traced" \
        --out-dir "$dir/out") | tail -n 1 | jq -c .
}

parent_commit=$(git rev-parse --verify "$parent^{commit}")
if [ -n "$change" ]; then
    change_commit=$(git rev-parse --verify "$change^{commit}")
    change_desc=$change_commit
else
    change_commit=$(git rev-parse HEAD)
    change_desc="working tree on $change_commit"
fi
export_side parent "$parent_commit"
export_side change "${change:+$change_commit}"

# Build both sides through run.sh (a one-second run each), parent first.
for side in parent change; do
    echo "bench_pairs: building $side" >&2
    run_side "$side" point_inproc 0 1 0 >/dev/null
done

runs=$work/runs.jsonl
: >"$runs"
record() { # side workload seed traced order result-json
    jq -c --arg side "$1" --arg w "$2" --argjson seed "$3" --argjson traced "$4" \
        --argjson order "$5" '{side: $side, workload: $w, seed: $seed, traced: ($traced == 1), order: $order, result: .}' \
        <<<"$6" >>"$runs"
}

max_pairs=0
for spec in ${workloads//,/ }; do
    n=${spec#*:}; [ "$n" = "$spec" ] && n=$pairs
    [ "$n" -gt "$max_pairs" ] && max_pairs=$n
done
for seed in $(seq 1 "$max_pairs"); do
    for spec in ${workloads//,/ }; do
        w=${spec%%:*} n=${spec#*:}; [ "$n" = "$spec" ] && n=$pairs
        [ "$seed" -le "$n" ] || continue
        if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        k=0
        for side in $order; do
            k=$((k + 1))
            echo "bench_pairs: $w seed $seed $side" >&2
            record "$side" "$w" "$seed" 0 "$k" "$(run_side "$side" "$w" "$seed" "$seconds" 0)"
        done
    done
done
if [ "$trace" -eq 1 ]; then
    for spec in ${workloads//,/ }; do
        w=${spec%%:*}
        for side in parent change; do
            echo "bench_pairs: $w traced $side" >&2
            record "$side" "$w" 1 1 0 "$(run_side "$side" "$w" 1 "$seconds" 1)"
        done
    done
fi

jq -n \
    --arg pc "$parent_commit" --arg pr "$parent" --arg cc "$change_commit" \
    --arg cd "$change_desc" --arg nproc "$(nproc)" --arg rustc "$(rustc -V)" \
    --arg workloads "$workloads" --argjson pairs "$pairs" --argjson seconds "$seconds" \
    --argjson trace "$trace" '{
        parent: {rev: $pr, commit: $pc}, change: {commit: $cc, describe: $cd},
        nproc: ($nproc | tonumber), rustc: $rustc,
        protocol: {command: "bash benchmark/run.sh --workload W --seed i --seconds S --trace 0",
                   workloads: $workloads, pairs: $pairs, seconds: $seconds,
                   traced_runs: ($trace == 1),
                   order: "pair i uses seed i; odd seeds run the parent first",
                   build: "each side exported and built once, into its own CARGO_TARGET_DIR",
                   verdict: "unresolved when |median change - median parent| <= the parent interquartile range"}}' \
    >"$work/meta.json"

python3 - "$runs" "$root/BENCHMARK.json" "$out" "$work/meta.json" <<'PY'
import json, statistics, sys

runs_path, bench_path, out, meta_path = sys.argv[1:5]
runs = [json.loads(l) for l in open(runs_path) if l.strip()]
bench = json.load(open(bench_path))
spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

def fmt(v):
    if v is None:
        return "-"
    a = abs(v)
    if a >= 10000:
        return f"{v:,.0f}".replace(",", " ")
    if a >= 100:
        return f"{v:.0f}"
    if a >= 10:
        return f"{v:.1f}"
    if a >= 1:
        return f"{v:.2f}"
    return f"{v:.3g}"

def value(run, name):
    m = run["result"]["metrics"].get(name)
    return None if m is None else m["value"]

summary = {}
lines = []
for traced in (False, True):
    sel = [r for r in runs if r["traced"] == traced]
    for w in dict.fromkeys(r["workload"] for r in sel):
        by = {s: sorted((r for r in sel if r["workload"] == w and r["side"] == s),
                        key=lambda r: r["seed"]) for s in ("parent", "change")}
        pairs = list(zip(by["parent"], by["change"]))
        names = list(by["parent"][0]["result"]["metrics"]) if by["parent"] else []
        key = w + (" (traced)" if traced else "")
        rows = summary.setdefault(key, {})
        failed = sum(r["result"]["failed"] for r in by["parent"] + by["change"])
        correct = all(r["result"]["correct"] for r in by["parent"] + by["change"])
        rows["_runs"] = {"pairs": len(pairs), "failed": failed, "correct": correct}
        lines.append(f"\n{key}: {len(pairs)} pair(s), failed {failed:g}, "
                     f"{'all correct' if correct else 'NOT ALL CORRECT'}")
        lines.append("| metric | parent median [min, max] | change median [min, max] | change | better in | verdict |")
        lines.append("|---|---|---|---|---|---|")
        for name in names:
            m = spec.get(name, {})
            lower = m.get("better", "lower") == "lower"
            p = [value(a, name) for a, _ in pairs]
            c = [value(b, name) for _, b in pairs]
            if any(v is None for v in p + c):
                continue
            mp, mc = statistics.median(p), statistics.median(c)
            if len(p) >= 2:
                q = statistics.quantiles(p, n=4, method="inclusive")
                iqr = q[2] - q[0]
            else:
                iqr = 0.0
            k = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            rel = (mc - mp) / mp if mp else 0.0
            worse = (mc > mp) if lower else (mc < mp)
            if abs(mc - mp) <= iqr:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse else "better"
            bound = m.get("bound")
            if bound is not None and worse and abs(rel) > bound:
                verdict = "WORSE > bound"
            rows[name] = {"parent_median": mp, "parent_min": min(p), "parent_max": max(p),
                          "parent_iqr": iqr, "change_median": mc, "change_min": min(c),
                          "change_max": max(c), "better_in": k, "pairs": len(pairs),
                          "change_rel": rel, "verdict": verdict}
            lines.append(f"| {name} | {fmt(mp)} [{fmt(min(p))}, {fmt(max(p))}] | "
                         f"{fmt(mc)} [{fmt(min(c))}, {fmt(max(c))}] | {rel:+.1%} | "
                         f"{k}/{len(pairs)} | {verdict} |")
print("\n".join(lines))

record = json.load(open(meta_path))
record["summary"] = summary
record["runs"] = runs
with open(out, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
print(f"\nwrote {out}")
PY
