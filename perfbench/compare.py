#!/usr/bin/env python3
"""Compares benchmark results of two commits, or of two sets of one commit.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl
    python3 perfbench/compare.py --agree A.jsonl B.jsonl
    python3 perfbench/compare.py --pairs 10 --base-dir DIR --head-dir DIR \\
        --out-dir DIR [--workloads a,b]

Result files are the JSON lines perfbench/run.py --out appends, one per
run. Bounds come from BENCHMARK.json next to this directory and, for the
workload-specific metrics, from run.py's EXTRAS.

BASE HEAD applies the gain rule: runs are paired in time order and must
alternate (each pair holds one run of each side, either first); a gain
needs at least 10 pairs, HEAD winning at least 9 in 10 of them (ties count
for neither), and the medians differing by more than the base's own
interquartile range. Every other metric is a regression when HEAD's median
is worse than BASE's by more than the bound, relatively and (for setup_s,
ckpt_save_s and ckpt_restore_s) by more than 5 ms; it is "unresolved"
when the base spread exceeds the bound, unless every HEAD run beats every
BASE run. Each workload gets its own rows and every ratio is printed with
its base.

--agree checks two sets of runs of the same commit agree: each bounded
metric's medians differ by at most its bound. It prints the largest
relative difference per metric and workload.

--pairs runs the alternating pairs itself: pair i runs seed 42+i on both
checkouts, the base first on even i, and appends to base.jsonl and
head.jsonl in --out-dir. Both checkouts must hold the same perfbench/ and
BENCHMARK.json (copy them into the base checkout if it predates them).

Exit status: 0 when no metric regressed (or, with --agree, all agree),
1 otherwise, 2 on bad input.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from run import EXTRAS

HERE = pathlib.Path(__file__).resolve().parent
ABS_FLOOR = {"setup_s": 0.005, "ckpt_save_s": 0.005, "ckpt_restore_s": 0.005}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                if not run.get("trace"):
                    runs.setdefault(run["workload"], []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda r: r["started"])
    return runs


def metric_specs():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update(EXTRAS)
    return specs


def values(runs, name):
    out = []
    for run in runs:
        m = run["metrics"].get(name) or run.get("extras", {}).get(name)
        if m is not None:
            out.append(m["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def better(a, b, direction):
    """True when a is better than b."""
    return a > b if direction == "higher" else a < b


def alternating(base, head):
    """Pairs (base[i], head[i]) alternate when, in start-time order, every
    consecutive two runs are one of each side."""
    order = sorted([(r["started"], "b") for r in base] +
                   [(r["started"], "h") for r in head])
    return all({order[i][1], order[i + 1][1]} == {"b", "h"}
               for i in range(0, len(order) - 1, 2))


def compare(base_runs, head_runs, specs):
    regressed = False
    print(f"{'workload':14s} {'metric':30s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'head/base':>10s} "
          f"{'wins':>6s}  verdict")
    for workload in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[workload], head_runs[workload]
        paired = alternating(base, head) and len(base) == len(head)
        for name, spec in specs.items():
            b, h = values(base, name), values(head, name)
            if not b or not h:
                continue
            direction = spec["better"]
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            pairs = list(zip(b, h)) if paired else []
            wins = sum(1 for x, y in pairs if better(y, x, direction))
            worse = (hmed - bmed) if direction == "lower" else (bmed - hmed)
            bound = spec["bound"]
            if (paired and len(pairs) >= MIN_PAIRS
                    and wins >= WIN_SHARE * len(pairs)
                    and better(hmed, bmed, direction)
                    and abs(hmed - bmed) > bq3 - bq1):
                verdict = "GAIN"
            elif (bmed and (bq3 - bq1) / abs(bmed) > bound
                  and not all(better(y, x, direction) for x in b for y in h)):
                verdict = "unresolved (base spread > bound)"
            elif (bmed and worse / abs(bmed) > bound
                  and worse > ABS_FLOOR.get(name, 0.0)):
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "within bound"
            if not paired:
                verdict += " (runs not in alternating pairs)"
            unit = spec["unit"]
            ratio = hmed / bmed if bmed else float("nan")
            print(f"{workload:14s} {name:30s} "
                  f"{bmed:12.5g} [{bq1:.4g}, {bq3:.4g}] {unit:5s} "
                  f"{hmed:12.5g} [{hq1:.4g}, {hq3:.4g}] "
                  f"{ratio:9.4f}x {wins:2d}/{len(pairs):<3d} {verdict}")
            print(f"{'':45s}(ratio base: {bmed:.6g} {unit}, n={len(b)} "
                  f"vs {len(h)})")
    return 1 if regressed else 0


def agree(a_runs, b_runs, specs):
    disagree = False
    print(f"{'workload':14s} {'metric':30s} {'median A':>12s} {'median B':>12s}"
          f" {'rel diff':>9s} {'bound':>6s}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for name, spec in specs.items():
            a, b = values(a_runs[workload], name), values(b_runs[workload], name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            diff = abs(mb - ma) / abs(ma) if ma else float("inf")
            ok = diff <= spec["bound"]
            disagree |= not ok
            print(f"{workload:14s} {name:30s} {ma:12.5g} {mb:12.5g} "
                  f"{diff:9.2%} {spec['bound']:6.0%}  "
                  f"{'agree' if ok else 'DISAGREE'} (base A, n={len(a)}/"
                  f"{len(b)})")
    return 1 if disagree else 0


def run_pairs(args):
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else ["all"]
    sides = {"base": pathlib.Path(args.base_dir),
             "head": pathlib.Path(args.head_dir)}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(42 + i),
                       "--out", str((out / f"{side}.jsonl").resolve())]
                print(f"pair {i} {side}: {' '.join(cmd[1:])}", file=sys.stderr)
                subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL,
                               check=False)
    return compare(load_runs(out / "base.jsonl"), load_runs(out / "head.jsonl"),
                   metric_specs())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--base-dir")
    parser.add_argument("--head-dir")
    parser.add_argument("--out-dir")
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if args.pairs:
        if not (args.base_dir and args.head_dir and args.out_dir):
            parser.error("--pairs needs --base-dir, --head-dir and --out-dir")
        return run_pairs(args)
    if len(args.files) != 2:
        parser.error("give two result files")
    a, b = (load_runs(f) for f in args.files)
    return agree(a, b, metric_specs()) if args.agree else compare(
        a, b, metric_specs())


if __name__ == "__main__":
    sys.exit(main())
