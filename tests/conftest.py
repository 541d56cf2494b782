"""Shared brute-force helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxchar
from signedperm import SignedPermutation


def mulclose(generators, limit=None):
    """Closure of a generator set under composition."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    seen = {SignedPermutation.identity(n).images}
    frontier = list(seen)
    while frontier:
        new = []
        for images in frontier:
            g = SignedPermutation(images)
            for h in generators:
                product = h.compose(g).images
                if product not in seen:
                    seen.add(product)
                    new.append(product)
                    if limit is not None and len(seen) > limit:
                        raise AssertionError(f"closure exceeded {limit}")
        frontier = new
    return {SignedPermutation(images) for images in seen}


def conjugacy_orbit(group_elements, g):
    """Orbit of g under conjugation by a full element list."""
    orbit = {g.images}
    for x in group_elements:
        orbit.add(g.conjugate(x).images)
    return orbit


def stretch_enabled() -> bool:
    return os.environ.get("COXCHAR_STRETCH") == "1"


# The child reads its own high-water mark as it ends: on Linux the
# ru_maxrss that os.wait4 reports for a child starts at the forking
# process's own, so under a suite that has grown it reads the suite.
_OWN_PEAK = """
import sys
from coxchar.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.writelines(line for line in status if line.startswith("VmHWM:"))
sys.exit(code)
"""


def run_cli_own_peak(argv):
    """Run the coxchar CLI on argv in a fresh interpreter: (exit code,
    stdout, stderr, own peak resident set in kB), stderr without the
    peak's line.  Skips the test where /proc/self/status is missing."""
    if not Path("/proc/self/status").exists():
        pytest.skip("the child's own peak (VmHWM) needs /proc/self/status")
    src = Path(coxchar.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _OWN_PEAK, *argv],
        env=env, capture_output=True, text=True,
    )
    err, found, peak = proc.stderr.rpartition("VmHWM:")
    assert found, proc.stderr  # the child ended before it read its peak
    kilobytes, unit = peak.split()
    assert unit == "kB", proc.stderr
    return proc.returncode, proc.stdout, err, int(kilobytes)
