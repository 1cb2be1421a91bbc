#!/usr/bin/env python3
"""Runs the repository benchmark: one workload (or all), one command.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE] [--trace-out FILE]

Run it from the repository root. On first use it builds the perfbench
CMake package (the simulator libraries from src/ plus the benchmark
binary, perfbench/coyote_bench.cpp) into .bench_build of this checkout.
Each workload runs in its own coyote_bench process, closed loop, for
BENCHMARK.json's run_seconds after one discarded warm-up iteration;
--seconds, when given, must equal run_seconds, because the run length is
part of the benchmark. coyote_bench checks every result and this script
checks the digests committed in perfbench/expected.json.

Output: one line per metric, "workload metric value unit (n=...)", then,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, a
self-time table is printed, and the spans are written as Chrome
trace-event JSON (default .bench_out/trace_<workload>_seed<seed>.json).
--out appends the full result, raw samples included, as one JSON line
(the input of perfbench/compare.py). --workload all runs every workload;
its JSON line then keys metrics as "<workload>.<metric>".

Exit status: 0 when every check passed, 1 when a check failed or the
benchmark binary crashed, 2 on a usage or build error.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170

# Workload-specific end-to-end metrics printed besides the BENCHMARK.json
# set, which holds only metrics every workload reports. They are recorded
# in --out results, and compare.py applies their bounds exactly as it
# applies BENCHMARK.json's. campaign.point_s_p50/p90 are percentiles over
# every point run; the others are medians over iterations.
EXTRAS = {
    "ffwd_mips": {"unit": "MIPS", "better": "higher", "bound": 0.2},
    "ckpt_save_s": {"unit": "s", "better": "lower", "bound": 0.2},
    "ckpt_restore_s": {"unit": "s", "better": "lower", "bound": 0.2},
    "campaign.engine_points_per_s": {"unit": "1/s", "better": "higher",
                                     "bound": 0.2},
    "campaign.tcp_points_per_s": {"unit": "1/s", "better": "higher",
                                  "bound": 0.2},
    "campaign.memo_points_per_s": {"unit": "1/s", "better": "higher",
                                   "bound": 0.25},
    "campaign.point_s_p50": {"unit": "s", "better": "lower", "bound": 0.2},
    "campaign.point_s_p90": {"unit": "s", "better": "lower", "bound": 0.2},
}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def build():
    """Configures once, then lets the build tool bring the binaries up to
    date; all build output goes to stderr so stdout stays parseable. The
    build tree belongs to this checkout: one configured for another
    source tree (a copied checkout) is refused, so two checkouts never
    measure the same sources."""
    out = ROOT / ".bench_build"
    cache = out / "CMakeCache.txt"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if cache.exists():
        if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
            fail(f"{out} was configured for another source tree; remove it")
    else:
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "coyote_bench", "coyote_bench_count"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values, unit):
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "n": len(values), "q1": q1,
            "q3": q3}


def run_binary(binary, workload, seed, seconds, trace, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=BINARY_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: coyote_bench exceeded {BINARY_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{workload}: coyote_bench exited with {proc.returncode}", 1)
    return json.loads(proc.stdout)


class Checks:
    """Checks attempted and the messages of those that failed, starting
    from what coyote_bench reported (which caps its message list)."""

    def __init__(self, raw):
        self.attempted = raw["attempted"]
        self.failed = raw["failed"]
        self.failures = [f"{raw['workload']}: {e}" for e in raw["errors"]]

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_digests(raw, expected, checks):
    """Committed digests (pinned at one seed) must match exactly."""
    pinned = expected["workloads"].get(raw["workload"], {})
    if raw["seed"] != expected["seed"]:
        return
    for key, want in pinned.items():
        got = raw["digests"].get(key)
        checks.add(got == want,
                   f"{raw['workload']}: {key} {got} != committed {want}")


def measure(workload, args, bench, expected, binaries):
    """Runs one workload; returns (metrics, extras, checks, raw output)."""
    names = {m["name"]: m["unit"] for m in
             bench["per_layer" if args.trace else "end_to_end"]}
    trace_out = None
    if args.trace:
        trace_out = args.trace_out or (
            ROOT / ".bench_out" / f"trace_{workload}_seed{args.seed}.json")
        pathlib.Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
    raw = run_binary(binaries["coyote_bench"], workload, args.seed,
                     bench["run_seconds"], args.trace, trace_out)
    checks = Checks(raw)
    checks.add(raw["optimized"],
               f"{workload}: coyote_bench built without optimization")
    check_digests(raw, expected, checks)

    samples = dict(raw["samples"])
    counts = dict(raw["counts"])
    samples["peak_rss_mb"] = [raw["peak_rss_mb"]]
    if args.trace:
        count = run_binary(binaries["coyote_bench_count"], workload,
                           args.seed, 0, False)
        counts["core.allocs_per_kinstr"] = count["counts"]["core.allocs_per_kinstr"]
        for key, value in count["digests"].items():
            checks.add(raw["digests"].get(key) == value,
                       f"{workload}: count build digest {key} differs")
        main_self = sum(row["main_self_s"] for row in raw["self_time"].values())
        coverage = main_self / raw["trace_wall_s"] if raw["trace_wall_s"] else 0
        checks.add(abs(coverage - 1.0) <= 0.05,
                   f"{workload}: self times cover {coverage:.1%} of the "
                   "traced wall time")
        raw["self_time_coverage"] = coverage

    metrics = {}
    for name, unit in names.items():
        if name in samples:
            metrics[name] = summarize(samples[name], unit)
        elif name in counts:
            metrics[name] = {"value": counts[name], "unit": unit, "n": 1}
        else:
            fail(f"{workload}: coyote_bench reported no '{name}'", 1)
    extras = {}
    if not args.trace:
        for name, spec in EXTRAS.items():
            if name in samples:
                extras[name] = summarize(samples[name], spec["unit"])
        points = samples.get("campaign.point_s")
        if points:
            for name, value in (("p50", statistics.median(points)),
                                ("p90", statistics.quantiles(points, n=10)[8])):
                extras[f"campaign.point_s_{name}"] = {
                    "value": value, "unit": "s", "n": len(points)}
    return metrics, extras, checks, raw


def print_self_times(workload, raw):
    rows = sorted(raw["self_time"].items(), key=lambda kv: -kv[1]["self_s"])
    total = raw["trace_wall_s"]
    print(f"{workload} self time by span over {total:.3f} s traced "
          f"(coverage {raw['self_time_coverage']:.1%}):")
    for name, row in rows:
        share = row["main_self_s"] / total if total else 0.0
        print(f"  {name:28s} self {row['self_s']:9.4f} s  "
              f"total {row['total_s']:9.4f} s  n={row['count']:<6d} "
              f"{share:6.1%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line")
    parser.add_argument("--trace-out", help="Chrome trace-event JSON path")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no simulator sources under {ROOT / 'src'}")
    bench = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(HERE / "expected.json")
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload '{args.workload}' (one of {names} or all)")
    if args.seconds is not None and args.seconds != bench["run_seconds"]:
        fail(f"--seconds {args.seconds:g} differs from BENCHMARK.json's "
             f"run_seconds {bench['run_seconds']}; the run length is fixed "
             "by the benchmark")

    out = build()
    binaries = {name: out / name
                for name in ("coyote_bench", "coyote_bench_count")}

    results = []
    for workload in workloads:
        started = time.time()
        metrics, extras, checks, raw = measure(workload, args, bench,
                                               expected, binaries)
        for name, m in {**metrics, **extras}.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} "
                  f"(n={m['n']})")
        if args.trace:
            print_self_times(workload, raw)
        for what in checks.failures:
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        results.append({
            "workload": workload, "seed": args.seed, "trace": bool(args.trace),
            "started": started, "finished": time.time(),
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics, "extras": extras, "digests": raw["digests"],
            "samples": raw["samples"], "counts": raw["counts"],
        })

    if args.out:
        with open(args.out, "a") as fh:
            for result in results:
                fh.write(json.dumps(result, sort_keys=True) + "\n")

    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
