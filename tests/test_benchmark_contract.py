"""The benchmark's traced runs, in tier-1: every invocation whose work
counters perfbench/selftest.py freezes runs through perfbench/shim.py with
the tracer installed, and its counters and outputs must hold.  So a change
that breaks a traced run, or moves a frozen counter, fails here rather than
in a benchmark gate.  Every file is written under the test's tmp_path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
try:
    import run
    import selftest
    import tracer
finally:
    sys.dont_write_bytecode = _write_bytecode
    sys.path.remove(str(PERFBENCH))

INVOCATIONS = {
    inv.key: inv
    for inv in selftest.TINY + [i for invs in run.WORKLOADS.values() for i in invs]
}


@pytest.mark.parametrize("key", list(selftest.COUNTERS))
def test_traced_run_keeps_the_frozen_counters(key, tmp_path):
    """The traced run passes the benchmark's output gate, and its counters,
    read as the benchmark reads them, have their frozen values."""
    inv = INVOCATIONS[key]
    record, report = tmp_path / "shim.json", tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(run.SHIM), str(record), "--trace", "--",
         *inv.args, "--json", str(report)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    result = run.Result(
        inv, proc.returncode, 0.0, 0.0, 0.0, 0.0, None, proc.stdout, proc.stderr,
        json.loads(report.read_text())["reports"] if report.exists() else None, None,
    )
    _, failed, problems = run.gate(result, run._load(run.EXPECTED))
    assert (failed, problems) == (0, []), proc.stderr
    counters = tracer.layer_numbers(json.loads(record.read_text())["trace"])
    got = {name: counters.get(name, 0) for name in selftest.COUNTERS[key]}
    assert got == selftest.COUNTERS[key]
