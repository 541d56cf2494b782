#!/usr/bin/env python3
"""Run every workload once, untraced, and print its metrics, with units, and fail_ratio.

    python3 perfbench/summary.py

Each run measures BENCHMARK.json's run_seconds with seed 0 and prints what
run.py logs: fail_ratio (failed checks over attempted checks), the unscaled
wall_s and cpu_s, and every end-to-end metric.  For another seed or a traced
run, use run.py.
"""

import json
import sys

import run


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        seconds = json.load(handle)["run_seconds"]
    ok = True
    for name, invocations in run.WORKLOADS.items():
        print(name, flush=True)
        result = run.run_workload(
            invocations, 0, seconds, 0, log=lambda line: print("  " + line, flush=True)
        )
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
