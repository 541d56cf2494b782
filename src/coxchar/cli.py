"""Command-line driver.

    coxchar --family B --rank 4 --check regular
    coxchar --family D --rank 5 --check all --json report.json
    coxchar --family B --rank 3 --check shape --shape "1"
    coxchar --family A --rank 3 --check shape --shape "4"   # the full group
    coxchar --family B --rank 10 --check regular
    coxchar --family B --rank 4 --check os --budget-flats 10000

Exit codes: 0 all requested checks pass (or are skipped), 1 a verification
failed, 2 usage or budget error (a group with more than CLASS_LIMIT
classes is refused before any class is listed, and a --shape that is not
one of the group's before any lattice is built) or a report or stdout
that cannot be written, 3 internal error (an invariant of the program
failed; the message is one `internal error:` line on stderr).
A reader that closes stdout early (`| head -1`) stops the printing but
changes neither the exit code nor the `--json` report; a stdout that
fails otherwise (a full disk) stops it too, with one `error: cannot
write stdout` line and exit 2, and the report is still written.  The
report is opened only once the checks have run, so a run that exits 2
or 3 before that leaves the file at that path as it was.

A CLI process exits without the interpreter's final collection: at exit
every live object is moved to the collector's permanent generation
(gc.freeze), which the exit-time collections skip, and the operating
system takes the memory back whole.  Nothing is lost that way: the
`--json` file is closed by its `with` block before main returns, and the
interpreter flushes stdout and stderr itself.  Importing this module only
registers that hook, so a caller that runs main in process keeps its
collector as it was until it exits.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import sys

from .groups import DEFAULT_FLAT_BUDGET, BudgetError, GroupDescriptor, class_count
from .verify import (
    VerificationReport,
    format_poincare_table,
    poincare_table,
    verify_all_shapes,
    verify_graded,
    verify_os,
    verify_regular,
    verify_shape,
)

LATTICE_CHECKS = ("os", "graded", "shape", "poincare")

# The most classes a group may have: counted before any is listed, so a
# larger group is refused at once.  The largest groups admitted are B16
# (5 822 classes), A29 and D17, whose regular checks take 7.4, 3.7 and
# 8.2 s and peak at 29, 28 and 43 MB (2-vCPU VM, Python 3.11); D18
# (6 160 classes) takes 29 s.
CLASS_LIMIT = 6000

atexit.register(gc.freeze)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name this function in the message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxchar",
        description="Verify character identities for classical Coxeter groups.",
    )
    parser.add_argument("--family", required=True, choices=list("ABDEFH"))
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument(
        "--check",
        default="all",
        choices=["regular", "os", "graded", "shape", "poincare", "all"],
    )
    parser.add_argument(
        "--shape",
        default=None,
        help='shape label, e.g. "2+1" or "2+2^-" in type D; the full group is '
        '"" in types B and D and the degree n in type A ("4" for A3); only '
        "with --check shape or all",
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument(
        "--budget-elements",
        type=_budget,
        help="accepted and ignored, for compatibility: no check enumerates "
        "group or centralizer elements",
    )
    parser.add_argument(
        "--budget-flats",
        type=_budget,
        default=DEFAULT_FLAT_BUDGET,
        help=f"largest intersection lattice built (default {DEFAULT_FLAT_BUDGET})",
    )
    return parser


def run(args) -> tuple[list[VerificationReport], int]:
    if args.family not in "ABD":
        report = VerificationReport(
            f"{args.family}{args.rank}",
            args.check,
            "skipped",
            [{"class": "-", "expected": "-", "got": "skipped: out of desk scale"}],
            0,
            {},
        )
        return [report], 0

    G = GroupDescriptor(args.family, args.rank)
    # Each hook (n - k, 1^k) labels a class of A_{n-1}, B_n and D_n, so a
    # group of degree n has at least n classes: refused before counting them.
    if G.degree > CLASS_LIMIT:
        raise ValueError(
            f"{G} has at least {G.degree} conjugacy classes, over the limit of"
            f" {CLASS_LIMIT}"
        )
    count = class_count(G)
    if count > CLASS_LIMIT:
        raise ValueError(
            f"{G} has {count} conjugacy classes, over the limit of {CLASS_LIMIT}"
        )
    shape = None
    if args.shape is not None:  # refused before any lattice is built
        from .shapes import parse_shape, shape_rank  # only shape checks load it

        shape = parse_shape(args.shape)
        shape_rank(G, shape)  # a shape that is not one of G's is a ValueError
    checks = (
        ["regular", "os", "graded", "shape", "poincare"]
        if args.check == "all"
        else [args.check]
    )
    budget = args.budget_flats
    if any(c in LATTICE_CHECKS for c in checks):
        from .lattice import get_lattice  # only lattice checks load it

        get_lattice(G, budget)  # a budget error comes before any check runs
    reports: list[VerificationReport] = []
    for check in checks:
        if check == "regular":
            reports.append(verify_regular(G))
        elif check == "os":
            reports.append(verify_os(G, budget))
        elif check == "graded":
            reports.append(verify_graded(G, budget))
        elif check == "shape" and shape is not None:
            reports.append(verify_shape(G, shape, budget))
        elif check == "shape":
            reports.extend(verify_all_shapes(G, budget))
        elif check == "poincare":
            reports.append(poincare_table(G, budget))
    code = 0 if all(r.passed for r in reports) else 1
    return reports, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rank < 1:
        parser.error(f"argument --rank: rank must be at least 1, got {args.rank}")
    if args.shape is not None and args.check not in ("shape", "all"):
        parser.error(f"argument --shape: not allowed with --check {args.check}")
    try:
        reports, code = run(args)
    except BudgetError as err:
        print(f"budget error: {err} (raise --budget-flats)", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    # opened only now, so a run that fails leaves a report already there
    try:
        with open(args.json, "w") if args.json else contextlib.nullcontext() as handle:
            try:
                for report in reports:
                    print(report.summary())
                    if report.table is not None:
                        print(format_poincare_table(report))
                    if report.status != "skipped":
                        for entry in report.discrepancies:
                            print(f"  {entry}")
                sys.stdout.flush()
            except OSError as err:
                # The reader has gone (`| head`) or the disk is full: print no
                # more, but still write the JSON.  Pointing stdout at devnull
                # keeps the flush at interpreter exit from failing again.
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
                if not isinstance(err, BrokenPipeError):
                    print(f"error: cannot write stdout: {err.strerror}", file=sys.stderr)
                    code = 2
            if handle is not None:
                payload = {"reports": [r.to_dict() for r in reports]}
                json.dump(payload, handle, indent=2)
    except OSError as err:  # the report could not be opened, written or closed
        print(f"error: cannot write {args.json}: {err.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
