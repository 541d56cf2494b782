#!/usr/bin/env python3
"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py                           # B3 and D4, ~10 s
    python3 perfbench/selftest.py regular-r7 poincare-r6    # also gate these

It checks every frozen Poincare table's identity row against
prod(1 + m_i t).  On B3 and D4 (`--check all`) it checks that every metric
named in BENCHMARK.json appears with its unit, that the exact work counters
have their frozen values, that a corrupted expected Poincare table, a wrong
printed identity row and a failed CLI run are counted as failures, and that
the benchmark refuses to run without the coxchar sources.  Each named workload adds one traced run per
invocation, gated against the counters below.  Times are never gated.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

# Exact work counters per CLI invocation, frozen from the seed.  A change to
# one of them means the algorithm now does different work: update it only
# together with a change that is meant to do so.
COUNTERS = {
    "B3 all": {
        "centralizers.elements_streamed": 304,
        "lattice.flats": 24,
        "lattice.moebius_calls": 5,
    },
    "D4 all": {
        "centralizers.elements_streamed": 720,
        "lattice.flats": 72,
        "lattice.moebius_calls": 10,
    },
    "B7 regular": {"centralizers.elements_streamed": 396156, "lattice.flats": 0},
    "D7 regular": {"centralizers.elements_streamed": 99039, "lattice.flats": 0},
    "A6 poincare": {
        "lattice.flats": 877,
        "lattice.moebius_calls": 15,
        "classfunctions.induce_calls": 0,
    },
    "B6 poincare": {
        "lattice.flats": 4088,
        "lattice.moebius_calls": 42,
        "classfunctions.induce_calls": 0,
    },
    "D6 poincare": {
        "lattice.flats": 2546,
        "lattice.moebius_calls": 21,
        "classfunctions.induce_calls": 0,
    },
}

TINY = [run.Invocation("B", 3, "all"), run.Invocation("D", 4, "all")]

failures = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def quiet(line):
    pass


def check_metrics(result: dict, declared: list, what: str):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{what}: every declared metric, with its unit")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{what}: outputs correct")


def check_counters(inv: run.Invocation):
    result = run.run_workload([inv], seed=0, seconds=0, trace=1, log=quiet)
    metrics = result["metrics"]
    for name, value in COUNTERS[inv.key].items():
        got = metrics[name]["value"]
        check(got == value, f"{inv.key}: {name} = {got:g}, frozen {value}")
    check(result["correct"], f"{inv.key}: outputs correct")


def main(argv) -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    check(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
        "BENCHMARK.json declares exactly the metrics run.py reports",
    )
    check(
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json declares exactly the workloads run.py runs",
    )
    expected = run._load(run.EXPECTED)
    for label, table in expected["tables"].items():
        ident, row = run.identity_poincare(label[0], int(label[1:]))
        check(dict(table)[ident] == row,
              f"{label}: prod(1 + m_i t) matches the frozen identity row")

    untraced = run.run_workload(TINY, seed=0, seconds=0, trace=0, log=quiet)
    check_metrics(untraced, bench["end_to_end"], "untraced B3+D4")
    traced = run.run_workload(TINY, seed=0, seconds=0, trace=1, log=quiet)
    check_metrics(traced, bench["per_layer"], "traced B3+D4")
    for inv in TINY:
        check_counters(inv)

    corrupted = copy.deepcopy(expected)
    corrupted["tables"]["B3"][1][1][2] += 1
    result = run.run_workload(TINY[:1], seed=0, seconds=0, trace=0,
                              expected=corrupted, log=quiet)
    check(not result["correct"] and result["failed"] > 0,
          f"a corrupted Poincare table counts as a failure "
          f"(fail_ratio {result['failed']}/{result['attempted']})")

    # A printed identity row is checked on its own, even where the frozen
    # table carries the same error.
    for shift, want in ((0, 0), (1, 1)):
        frozen = copy.deepcopy(expected)
        table = frozen["tables"]["B3"]
        ident, _ = run.identity_poincare("B", 3)
        dict(table)[ident][1] += shift
        stdout = "\n".join(f"{label}: {' '.join(map(str, row))}" for label, row in table)
        reports = [{"group": "B3", "check": name, "status": "pass"}
                   for name in frozen["reports"]["B3 all"]]
        printed = run.Result(TINY[0], 0, 0.0, 0.1, 0.1, 1.0, None, stdout, "", reports, None)
        _, failed, problems = run.gate(printed, frozen)
        check(failed == want and all("identity row" in p for p in problems),
              f"identity row off by {shift}, frozen table alike: {failed} failed check(s)")

    crashed = run.Result(TINY[0], 1, 0.0, 0.1, 0.1, 1.0, None, "",
                         "Traceback (most recent call last):", None, None)
    attempted, failed, _ = run.gate(crashed, expected)
    check(attempted == failed > 0, "a crashed CLI run fails all its checks")

    bare = run.WORK / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "all-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the coxchar sources the benchmark exits non-zero with no result")

    for name in argv:
        for inv in run.WORKLOADS[name]:
            check_counters(inv)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
