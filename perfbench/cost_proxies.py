#!/usr/bin/env python3
"""Deterministic cost-proxy check: the ctest bench_cost_proxies.

    python3 perfbench/cost_proxies.py PATH/TO/coyote_bench_count

Runs the counting build of the benchmark binary (counting operator new;
never timed) once on reduced-size versions of the three detailed
workloads, and checks against perfbench/cost_proxies.json:
  - the simulated digests equal the committed ones exactly;
  - simfw.events_per_instr and core.allocs_per_kinstr are at most their
    committed ceilings, so an improvement passes and a regression fails.
No timing is involved, so the result repeats exactly on any host.
Lower a ceiling in the same change that lowers the proxy.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE / "cost_proxies.json").read_text())
    failures = 0
    for case in spec["cases"]:
        proc = subprocess.run(
            [sys.argv[1], "--workload", case["workload"], "--size",
             str(case["size"]), "--seed", str(spec["seed"])],
            stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        got = json.loads(proc.stdout)
        label = f"{case['workload']} size={case['size']}"
        problems = list(got["errors"])
        for key, want in case["digests"].items():
            if got["digests"].get(key) != want:
                problems.append(f"digest {key} {got['digests'].get(key)} != "
                                f"committed {want}")
        for name, ceiling in case["ceilings"].items():
            value = got["counts"][name]
            print(f"{label}: {name} = {value:.6g} (ceiling {ceiling:.6g})")
            if value > ceiling:
                problems.append(f"{name} {value:.6g} exceeds ceiling "
                                f"{ceiling:.6g}")
        for problem in problems:
            print(f"{label}: FAIL {problem}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
