"""Reference sampler: times one fixed slice of pure-Python work, over and over.

    python3 perfbench/reference.py OUT

run.py starts it beside the CLI processes it measures and kills it at the end
of the run; it also exits by itself once its parent has gone.  Every 50 ms it
runs one reference unit and appends to OUT the CLOCK_MONOTONIC time the unit
started and its duration, in seconds.  Run beside a CLI process, a unit slows
and speeds up with it as the shared machine's speed drifts, so run.py can
scale each CLI run's times by the units timed during it (see README.md,
"Noise").
"""

import os
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.05


def reference_unit() -> int:
    """About 2 ms of the work coxchar does on an idle machine: tuple hashing,
    dict tallies, integer row arithmetic and Fractions."""
    tally = {}
    perm = tuple(range(10))
    row = list(range(1, 9))
    acc = Fraction(0)
    for i in range(750):
        perm = perm[1:] + perm[:1] if i % 4 else perm[::-1]
        tally[perm] = tally.get(perm, 0) + 1
        row = [(3 * a - b) % 10007 for a, b in zip(row, row[1:] + row[:1])]
        if i % 25 == 0:
            acc += Fraction(row[0], i % 7 + 1)
    return len(tally) + acc.denominator


def main() -> None:
    parent = os.getppid()
    with open(sys.argv[1], "w", buffering=1) as out:
        while os.getppid() == parent:
            start = time.monotonic()
            began = time.perf_counter()
            reference_unit()
            out.write(f"{start} {time.perf_counter() - began}\n")
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
