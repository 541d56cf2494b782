#!/usr/bin/env python3
"""The coxchar benchmark: CLI runs timed end to end, with their outputs checked.

    python3 perfbench/run.py --workload regular-r7 --seed 1 --seconds 40 --trace 0

A closed loop with one client: the benchmark starts one `coxchar` CLI process
(through shim.py, which adds nothing but a set-up timestamp), waits for it to
exit, and only then starts the next.  One pass runs every invocation of the
workload once, in an order shuffled by the seed; the inputs themselves are
fixed by the mathematics.  Passes repeat while the next one, estimated from
the last, still ends within --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics, measured with tracing off.  Each
CLI run's wall, CPU and set-up times are scaled by the speed of its CPU
while it ran, which reference.py samples on the same CPU (README.md,
"Noise"); the unscaled figures are logged too.
--trace 1 runs pairs of an untraced and a traced pass (tracer.py wraps each
layer's public functions in the CLI process), pairs repeating in the same
way, and reports per-layer metrics.
Every CLI output is checked in both modes; the last stdout line is the JSON
result.  See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SHIM = HERE / "shim.py"
REFERENCE = HERE / "reference.py"
EXPECTED = HERE / "expected.json"

RUN_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s
SETUP_PROBES = 16  # set-up-only CLI starts per run, besides the real ones
# The median time of one reference unit (reference.py) on the reference
# machine (2-vCPU Intel Xeon VM, Python 3.11.7) at its usual speed: scaled
# times are in seconds of that speed.
REFERENCE_UNIT_S = 0.0021


@dataclass(frozen=True)
class Invocation:
    family: str
    rank: int
    check: str
    extra: tuple[str, ...] = ()

    @property
    def group(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def key(self) -> str:
        return f"{self.group} {self.check}"

    @property
    def args(self) -> list[str]:
        return ["--family", self.family, "--rank", str(self.rank),
                "--check", self.check, *self.extra]


RANK7 = ("--budget-elements", "1000000")

# Why each workload exists, and the layer it isolates, is in README.md.
WORKLOADS = {
    "regular-r7": [
        Invocation("B", 7, "regular", RANK7),
        Invocation("D", 7, "regular", RANK7),
    ],
    "poincare-r6": [Invocation(f, 6, "poincare") for f in "ABD"],
    "all-small": [
        *(Invocation("A", r, "all") for r in range(1, 6)),
        *(Invocation("B", r, "all") for r in range(2, 6)),
        *(Invocation("D", r, "all") for r in (4, 5)),
    ],
}

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "groups.classes_s": "s",
    "characters.specs_s": "s",
    "characters.specs_calls": "count",
    "classfunctions.induce_s": "s",
    "classfunctions.induce_calls": "count",
    "centralizers.elements_streamed": "count",
    "classfunctions.induce_ns_per_element": "ns",
    "linalg.meet_hyperplane_s": "s",
    "linalg.meet_hyperplane_calls": "count",
    "lattice.build_s": "s",
    "lattice.flats": "count",
    "lattice.hyperplanes": "count",
    "lattice.fixed_subposet_s": "s",
    "lattice.stable_flats": "count",
    "lattice.moebius_s": "s",
    "lattice.moebius_calls": "count",
    "lattice.moebius_pairs": "count",
    "lattice.graded_os_s": "s",
    "lattice.shape_os_s": "s",
    "lattice.poincare_s": "s",
    "verify.compare_s": "s",
    "verify.regular_s": "s",
    "verify.os_s": "s",
    "verify.graded_s": "s",
    "verify.shape_s": "s",
    "verify.poincare_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

TABLE_LINE = re.compile(r"^([^\s:]+): (-?\d+(?: -?\d+)*)$")


@dataclass
class Result:
    inv: Invocation
    code: int
    start: float
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    stdout: str
    stderr: str
    reports: list | None
    trace: dict | None


class Runner:
    """Starts CLI processes one at a time, all inside the checkout, beside
    one reference.py sampler that runs until close().  The sampler and every
    CLI process share one CPU, so that the sampler times that CPU's speed
    while the CLI runs on it, without contending with it on a second CPU."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        self.samples = WORK / "reference.txt"
        self.cpu = {max(os.sched_getaffinity(0))}
        self.sampler = subprocess.Popen([sys.executable, str(REFERENCE), str(self.samples)])
        os.sched_setaffinity(self.sampler.pid, self.cpu)

    def close(self) -> list[tuple[float, float]]:
        """Stop the sampler; return its (start, duration) samples."""
        self.sampler.kill()
        self.sampler.wait()
        with open(self.samples) as handle:
            return [tuple(map(float, line.split())) for line in handle if line.endswith("\n")]

    def run(self, inv: Invocation, trace=False, probe=False) -> Result:
        self.count += 1
        stem = WORK / f"{self.count:05d}"
        record, report = stem.with_suffix(".shim.json"), stem.with_suffix(".report.json")
        flags = (["--trace"] if trace else []) + (["--probe"] if probe else [])
        cli_args = inv.args if probe else [*inv.args, "--json", str(report)]
        cmd = [sys.executable, str(SHIM), str(record), *flags, "--", *cli_args]
        with open(stem.with_suffix(".stdout"), "w+") as out, \
                open(stem.with_suffix(".stderr"), "w+") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            os.sched_setaffinity(proc.pid, self.cpu)
            reaped = threading.Event()
            timer = threading.Timer(
                max(0.0, self.deadline - started),
                lambda: reaped.is_set() or proc.kill(),
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
            wall = time.monotonic() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        shim = _load(record) or {}
        return Result(
            inv,
            proc.returncode,
            started,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            shim["first_call"] - started if "first_call" in shim else None,
            stdout,
            stderr,
            (_load(report) or {}).get("reports"),
            shim.get("trace"),
        )

    def rounds(self, invocations, rng, seconds, traces=(False,)) -> list[list[list[Result]]]:
        """Rounds of shuffled passes, one pass for each entry of `traces`,
        while the next round should end within `seconds`."""
        begun = time.monotonic()
        rounds = []
        while True:
            start = time.monotonic()
            passes = []
            for trace in traces:
                order = list(invocations)
                rng.shuffle(order)
                passes.append([self.run(inv, trace=trace) for inv in order])
            rounds.append(passes)
            now = time.monotonic()
            if now - begun + (now - start) > seconds or now + (now - start) > self.deadline:
                return rounds


def _load(path: Path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# -- output gate ----------------------------------------------------------------

def identity_poincare(family: str, rank: int) -> tuple[str, list[int]]:
    """Label and P_1(t) = prod (1 + m_i t) of the identity class, from the
    exponents of the reflection arrangement."""
    n = rank + 1 if family == "A" else rank
    exponents = {
        "A": list(range(1, n)),
        "B": list(range(1, 2 * n, 2)),
        "D": [*range(1, 2 * n - 2, 2), n - 1],
    }[family]
    coeffs = [1]
    for m in exponents:
        coeffs = [a + m * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return "+".join(["1"] * n), coeffs


def printed_table(stdout: str) -> list:
    return [
        [m.group(1), [int(c) for c in m.group(2).split()]]
        for m in map(TABLE_LINE.match, stdout.splitlines())
        if m
    ]


def gate(res: Result, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the reports one CLI run must give."""
    want = [[res.inv.group, check] for check in expected["reports"][res.inv.key]]
    problems = []
    if res.code != 0:
        problems.append(f"exit code {res.code}")
    if "Traceback (most recent call last)" in res.stderr:
        problems.append("traceback on stderr")
    got = [[r["group"], r["check"]] for r in res.reports or []]
    if got != want:
        problems.append(f"reports {got}, expected {want}")
    if problems:
        return len(want), len(want), problems
    failed = 0
    for report in res.reports:
        if report["status"] != "pass":
            problems.append(f"{report['group']} {report['check']}: {report['status']}")
            failed += 1
        elif report["check"] == "poincare":
            table = printed_table(res.stdout)
            label, row = identity_poincare(res.inv.family, res.inv.rank)
            # Two independent checks on the printed table; one failure at most.
            if dict(table).get(label) != row:
                problems.append(f"{res.inv.group} identity row is not prod(1 + m_i t)")
                failed += 1
            elif table != expected["tables"][res.inv.group]:
                problems.append(f"{res.inv.group} Poincare table differs from the frozen one")
                failed += 1
    return len(want), failed, problems


# -- metrics --------------------------------------------------------------------

def _per_invocation(passes, value) -> dict[str, float]:
    """Median over passes of each invocation's value."""
    samples = defaultdict(list)
    for results in passes:
        for res in results:
            samples[res.inv.key].append(value(res))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def speed(samples, res: Result) -> float:
    """The speed of the CLI's CPU while `res` ran, relative to the reference
    machine's usual speed: REFERENCE_UNIT_S over the median duration of the
    reference units started meanwhile (of every unit, if none was).  The
    median drops the units the CLI process preempted."""
    during = [d for t, d in samples if res.start <= t <= res.start + res.wall]
    return REFERENCE_UNIT_S / statistics.median(during or [d for _, d in samples])


def end_to_end(probes, passes, samples) -> dict[str, float]:
    setups = [
        r.setup * speed(samples, r)
        for r in probes + [r for p in passes for r in p]
        if r.setup is not None
    ]
    if not setups:
        raise RuntimeError("no CLI process reached its first layer call")
    return {
        "wall_norm_s": sum(
            _per_invocation(passes, lambda r: r.wall * speed(samples, r)).values()
        ),
        "cpu_norm_s": sum(
            _per_invocation(passes, lambda r: r.cpu * speed(samples, r)).values()
        ),
        "peak_rss_mb": max(_per_invocation(passes, lambda r: r.rss_mb).values()),
        "setup_s": statistics.median(setups),
    }


def pass_layers(results) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its processes."""
    total = defaultdict(float)
    for res in results:
        if res.trace:
            for name, value in tracer.layer_numbers(res.trace).items():
                total[name] += value
    total["trace.wall_s"] = sum(r.wall for r in results)
    total["trace.unattributed_s"] = total["trace.wall_s"] - sum(
        total[layer] for layer in set(tracer.LAYER.values())
    )
    elements = total["centralizers.elements_streamed"]
    total["classfunctions.induce_ns_per_element"] = (
        total.pop("noncentral_induce_s", 0.0) / elements * 1e9 if elements else 0.0
    )
    return total


def per_layer(untraced, traced) -> dict[str, float]:
    """Medians over passes; untraced[k] and traced[k] ran back to back."""
    by_pass = [pass_layers(results) for results in traced]
    out = {name: statistics.median(p[name] for p in by_pass) for name in by_pass[0]}
    for check in ("regular", "os", "graded", "shape", "poincare"):
        out[f"verify.{check}_s"] = statistics.median(
            sum(
                report["timing_ms"] / 1000
                for res in results
                for report in res.reports or []
                if report["check"].split()[0] == check
            )
            for results in untraced
        )
    out["trace.overhead_s"] = statistics.median(
        sum(r.wall for r in t) - sum(r.wall for r in u) for u, t in zip(untraced, traced)
    )
    return {name: out.get(name, 0.0) for name in PER_LAYER}


# -- one run --------------------------------------------------------------------

def run_workload(invocations, seed, seconds, trace, expected=None, log=print) -> dict:
    """Measure one workload and return the JSON result of the run."""
    expected = expected or _load(EXPECTED)
    started = time.monotonic()
    runner = Runner(started + RUN_LIMIT_S)
    rng = random.Random(seed)
    try:
        if trace:
            # Untraced and traced passes alternate, so that the machine's
            # drift falls alike on both passes of a pair.
            rounds = runner.rounds(invocations, rng, seconds, traces=(False, True))
            untraced, traced = [r[0] for r in rounds], [r[1] for r in rounds]
            checked = untraced + traced
        else:
            # The first start also compiles coxchar's bytecode: not a sample.
            # Half the probes run before the passes and half after, since
            # this machine's speed drifts over tens of seconds.
            runner.run(invocations[0], probe=True)

            def probe(count):
                return [runner.run(invocations[k % len(invocations)], probe=True)
                        for k in range(count)]

            probes = probe(SETUP_PROBES // 2)
            checked = [r[0] for r in runner.rounds(invocations, rng, seconds)]
            probes += probe(SETUP_PROBES - len(probes))
    finally:
        samples = runner.close()
    if trace:
        values = per_layer(untraced, traced)
        units = PER_LAYER
        log(f"{len(rounds)} pair(s) of an untraced and a traced pass; medians over passes")
    else:
        values = end_to_end(probes, checked, samples)
        units = END_TO_END
        log(f"{len(checked)} pass(es); wall, cpu and rss are medians over passes per "
            f"invocation; setup_s is the median of {len(probes)} probes and "
            f"{len(checked) * len(invocations)} runs; {len(samples)} reference units")
        speeds = [speed(samples, r) for p in checked for r in p]
        setups = [r.setup for r in probes + [r for p in checked for r in p] if r.setup is not None]
        log(f"unscaled: wall_s = "
            f"{sum(_per_invocation(checked, lambda r: r.wall).values()):.6g} s, cpu_s = "
            f"{sum(_per_invocation(checked, lambda r: r.cpu).values()):.6g} s, setup_s = "
            f"{statistics.median(setups):.6g} s; CPU speed {min(speeds):.3f} to "
            f"{max(speeds):.3f} of the reference's usual")

    attempted = failed = 0
    for results in checked:
        for res in results:
            a, f, problems = gate(res, expected)
            attempted += a
            failed += f
            for problem in problems:
                log(f"FAIL {res.inv.key}: {problem}")
    log(f"{len(invocations)} CLI run(s) a pass, seed {seed}; "
        f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    for name, value in values.items():
        log(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxchar" / "cli.py").is_file():
        print(f"no coxchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
