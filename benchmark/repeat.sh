#!/usr/bin/env bash
# Runs the suite as two interleaved sets of runs, every run with another
# --seed, and judges the benchmark by its own bounds the way the driver
# does: per workload and end-to-end metric, each set's spread (distance
# between the first and third quartile as a share of the median) must stay
# within the metric's bound, and set B's median must not be worse than set
# A's by more than the bound. Prints the table and writes it to
# benchmark/REPEATABILITY.md.
#
#   benchmark/repeat.sh [runs-per-set, default 10, at least 5]
#   benchmark/repeat.sh summary      # judge the runs already in benchmark/out/repeat
#
# Run from the root of the repository. Takes about
# 2 * runs * 5 workloads * 17 s.
set -euo pipefail

[ -f BENCHMARK.json ] || { echo "repeat.sh: run from the repository root" >&2; exit 2; }
out="benchmark/out/repeat"
workloads=(walk_uniform neighbor_biased walk_biased_depth disk_walk serve_mixed)

if [ "${1:-}" != summary ]; then
    runs="${1:-10}"
    if [ "$runs" -lt 5 ]; then
        echo "repeat.sh: at least 5 runs per set" >&2
        exit 2
    fi
    seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    bin="${CARGO_TARGET_DIR:-benchmark/target}/release/csaw-benchmark"
    rm -rf "$out"
    mkdir -p "$out"

    # Interleaved: run i of set A, then run i of set B, so a slow quarter
    # of an hour on the box lands on both sets alike.
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            if [ "$set" = A ]; then seed="$i"; else seed="$((1000 + i))"; fi
            for w in "${workloads[@]}"; do
                echo "set $set run $i/$runs: $w --seed $seed" >&2
                "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                    | tail -n 1 >>"$out/$set.$w.jsonl"
            done
        done
    done
fi

python3 - "$out" "${workloads[@]}" <<'PY' | tee benchmark/REPEATABILITY.md
import json, statistics, subprocess, sys, datetime

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
runs = sum(1 for _ in open(f"{out}/A.{workloads[0]}.jsonl"))

def load(set_, w):
    rows = [json.loads(l) for l in open(f"{out}/{set_}.{w}.jsonl")]
    assert all(r["correct"] and r["failed"] == 0 for r in rows), f"{w}: a run failed verification"
    return rows

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

cores = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
print("# Repeatability of the benchmark on its own bounds")
print()
print(f"Written by `benchmark/repeat.sh` on {datetime.date.today()} "
      f"({cores} cores, `--seconds {bench['run_seconds']}`). Two interleaved sets of "
      f"{runs} runs, every run with another `--seed` (set A: 1..{runs}, set B: 1001..{1000 + runs}).")
print("Spread is the distance between the first and third quartile "
      "(`statistics.quantiles(values, n=4)`) as a share of the median. "
      "Shift is how much worse set B's median is than set A's (negative: better). "
      "A row is `ok` when both spreads and the shift are within the bound; "
      "`setup_s` is judged on the shift alone, as the driver judges it.")
print()
print("| workload | metric | bound | A median | A q1..q3 | A spread | B median | B q1..q3 | B spread | shift | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
worst, bad = 0.0, []
for w in workloads:
    a_rows, b_rows = load("A", w), load("B", w)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = summary([r["metrics"][name]["value"] for r in a_rows])
        b = summary([r["metrics"][name]["value"] for r in b_rows])
        shift = (b[0] - a[0]) / a[0]
        if m["better"] == "higher":
            shift = -shift
        ok = shift <= bound and (name == "setup_s" or max(a[3], b[3]) <= bound)
        if name != "setup_s":
            worst = max(worst, max(a[3], b[3]) / bound)
        if not ok:
            bad.append(f"{w}/{name}")
        print(f"| {w} | {name} | {bound:.0%} | {a[0]:.6g} | {a[1]:.6g}..{a[2]:.6g} | {a[3]:.2%} | "
              f"{b[0]:.6g} | {b[1]:.6g}..{b[2]:.6g} | {b[3]:.2%} | {shift:+.2%} | {'ok' if ok else 'OVER'} |")
print()
print(f"Largest spread as a share of its bound: {worst:.0%} (the target is a third).")
print("Every row is within its bound." if not bad else "Over the bound: " + ", ".join(bad) + ".")
print("""
## The bounds

ISSUE 21 proposed 5% on `seps`, `request_ms_p50` and `peak_rss_mb`, and 10%
on `setup_s` and on `serve_mixed`, from scratch runs that swung at most 3%
in a quiet spell. It allowed a wider bound only with evidence written here.

- `peak_rss_mb` keeps 5%. With the graph seed fixed it spreads about 1%.
- `seps`, `request_ms_p50` and `setup_s` are at 25%, the widest the
  benchmark contract allows and past the issue's ceiling of 10%. The
  evidence, all from this box (README.md, "Noise", has the measurements):
  - One pass per run: eight-run sets spread 23% to 29% on total time in a
    noisy quarter of an hour.
  - Fastest of three passes per request: a two-set run of this script
    spread 7% to 23% on `seps` and `request_ms_p50`, on all five workloads.
  - Fastest of ten passes, which is what the benchmark does: the table
    above. Most spreads are 1% to 5%. The widest are 7% to 9%, where two
    or three runs of a set fell whole into a spell of 15 s or more in
    which the box ran 10% to 30% slower.
  - The contract asks for spreads under a third of the bound, and 9% needs
    25%.
- One bound holds for all workloads, because `BENCHMARK.json` has one bound
  per metric.
- Compare a parent and a change in alternating pairs: the pairs share the
  slow spells. The shift column shows how well interleaving cancels them.""")
PY
