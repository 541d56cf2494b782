import ast
import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

import pytest

import coxchar
from conftest import stretch_enabled
from coxchar import classfunctions, cli, groups
from coxchar.classfunctions import ClassFunction, trivial_character
from coxchar.cli import main
from coxchar.groups import GroupDescriptor, conjugacy_classes
from coxchar.lattice import Lattice, get_lattice
from coxchar.verify import (
    format_poincare_table,
    poincare_table,
    verify_all_shapes,
    verify_graded,
    verify_os,
    verify_regular,
    verify_shape,
)
from coxchar.shapes import Shape, shapes

SRC = Path(coxchar.__file__).resolve().parents[1]


REPORT_KEYS = ["group", "check", "status", "discrepancies", "timing_ms", "config"]


def test_verify_regular_report_fields():
    report = verify_regular(GroupDescriptor("B", 2))
    assert report.status == "pass"
    assert report.discrepancies == []
    assert report.group == "B2"
    assert report.timing_ms >= 0
    assert report.config == {}
    assert list(report.to_dict()) == REPORT_KEYS


def test_report_json_keys_and_immutability():
    """The JSON keys come in field order, table last and only in a
    Poincare report; a report is immutable, and each skipped report owns
    its config."""
    args = cli.build_parser().parse_args(["--family", "E", "--rank", "6"])
    (skipped,), code = cli.run(args)
    (again,), _ = cli.run(args)
    assert code == 0 and list(skipped.to_dict()) == REPORT_KEYS
    assert skipped.config == {} and skipped.config is not again.config
    table = poincare_table(GroupDescriptor("B", 2)).to_dict()
    assert list(table) == REPORT_KEYS + ["table"]
    with pytest.raises(AttributeError):
        skipped.status = "pass"


def test_poincare_table_format():
    report = poincare_table(GroupDescriptor("B", 2))
    text = format_poincare_table(report)
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "1+1: 1 4 3"
    assert all(line.split(": ")[1].startswith("1") for line in lines)


def test_poincare_table_b3_regression():
    """Frozen B_3 table; every row is pinned by the graded identity and
    the identity row by the finite-field oracle."""
    report = poincare_table(GroupDescriptor("B", 3))
    assert format_poincare_table(report) == "\n".join(
        [
            "1+1+1: 1 9 23 15",
            "2+1: 1 3 3 1",
            "3: 1 0 -1 0",
            "-1+1+1: 1 5 7 3",
            "-1+2: 1 3 3 1",
            "-1-1+1: 1 5 7 3",
            "-2+1: 1 1 -1 -1",
            "-1-1-1: 1 9 23 15",
            "-1-2: 1 1 -1 -1",
            "-3: 1 0 -1 0",
        ]
    )


def test_verify_shape_spec_instances():
    # two cuspidal labels feed the B_3 shape (1); three feed the empty D_4 shape
    G = GroupDescriptor("B", 3)
    assert verify_shape(G, Shape((1,))).status == "pass"
    D = GroupDescriptor("D", 4)
    assert verify_shape(D, Shape(())).status == "pass"


def test_cli_regular_pass(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--family", "B", "--rank", "3", "--check", "regular", "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["group"] == "B3"
    assert payload["reports"][0]["status"] == "pass"
    assert payload["reports"][0]["check"] == "regular"


def test_cli_all_checks(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--family", "B", "--rank", "2", "--check", "all", "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    checks = [r["check"] for r in payload["reports"]]
    assert checks[0] == "regular"
    assert "os" in checks and "graded" in checks and "poincare" in checks
    assert sum(1 for c in checks if c.startswith("shape")) == len(
        shapes(GroupDescriptor("B", 2))
    )


def test_cli_single_shape():
    code = main(["--family", "B", "--rank", "3", "--check", "shape", "--shape", "1"])
    assert code == 0


@pytest.mark.parametrize(
    "family,rank,label,shown",
    [("A", 3, "4", "4"), ("B", 3, "", "()"), ("D", 4, "", "()")],
)
def test_cli_full_group_shape(family, rank, label, shown, capsys):
    """The full group's shape as the --shape help gives it: all n
    coordinates in one block in type A, no block outside the zero block in
    types B and D."""
    code = main([
        "--family", family, "--rank", str(rank), "--check", "shape", "--shape", label,
    ])
    assert code == 0
    assert capsys.readouterr().out == f"{family}{rank} shape {shown}: pass\n"


def test_cli_exceptional_family_skipped(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--family", "E", "--rank", "8", "--check", "regular", "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["status"] == "skipped"
    assert "out of desk scale" in str(payload["reports"][0]["discrepancies"])


def test_cli_skipped_report_prints_its_reason(capsys):
    """A skipped check prints one line with its reason, and no entry."""
    assert main(["--family", "E", "--rank", "6", "--check", "shape"]) == 0
    assert capsys.readouterr().out == "E6 shape: skipped (out of desk scale)\n"


@pytest.mark.parametrize("check", ["regular", "os", "graded", "poincare"])
def test_cli_shape_outside_shape_checks_is_usage_error(check, capsys):
    """--shape selects a shape check; with a check that runs none it is
    refused rather than ignored.  It stays valid with shape and all."""
    with pytest.raises(SystemExit) as exc:
        main(["--family", "B", "--rank", "3", "--check", check, "--shape", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --shape: not allowed with --check {check}" in captured.err
    assert main(["--family", "B", "--rank", "3", "--check", "all", "--shape", "1"]) == 0
    assert "B3 shape 1: pass" in capsys.readouterr().out


def test_cli_budget_exceeded_is_usage_error(capsys):
    assert main(["--family", "B", "--rank", "4", "--check", "os",
                 "--budget-flats", "10"]) == 2
    assert "(raise --budget-flats)" in capsys.readouterr().err


def test_cli_config_records_applied_flat_budget(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--family", "B", "--rank", "3", "--check", "all",
        "--budget-flats", "5000", "--json", str(out),
    ])
    assert code == 0
    reports = json.loads(out.read_text())["reports"]
    assert reports[0]["check"] == "regular" and reports[0]["config"] == {}
    assert all(r["config"] == {"budget_flats": 5000} for r in reports[1:])


def test_cli_rank_9_regular_without_budget_flag():
    for family in "BD":
        assert main(["--family", family, "--rank", "9", "--check", "regular"]) == 0


def test_cli_bad_shape_is_usage_error():
    assert main(["--family", "B", "--rank", "3", "--check", "shape",
                 "--shape", "2+2^-"]) == 2


@pytest.mark.parametrize("extra", [
    ["--check", "all"],
    ["--check", "shape"],
    ["--check", "all", "--budget-flats", "10"],
], ids=["all", "shape", "over the flat budget"])
def test_cli_bad_shape_is_refused_before_any_work(extra, monkeypatch, capsys):
    """A --shape that is not one of the group's exits 2 with its one line
    before any lattice is built or any check runs, and before the flat
    budget is compared."""
    from coxchar import lattice

    def refuse(*args):
        raise AssertionError("work done before the shape was checked")

    monkeypatch.setattr(lattice, "get_lattice", refuse)
    monkeypatch.setattr(cli, "verify_regular", refuse)
    assert main(["--family", "B", "--rank", "8", "--shape", "9", *extra]) == 2
    assert capsys.readouterr() == ("", "error: 9 is not a shape of B8\n")


def test_cli_rank_7_with_raised_budget():
    code = main([
        "--family", "D", "--rank", "7", "--check", "regular",
        "--budget-elements", "1000000",
    ])
    assert code == 0


def test_cli_rank_7_lattice_check_with_default_budget():
    assert main(["--family", "D", "--rank", "7", "--check", "poincare"]) == 0


def test_rank_7_lattice_identities():
    """The os, graded and every shape identity, and the Poincare table, on
    D7 (17 867 flats, 34 classes)."""
    G = GroupDescriptor("D", 7)
    reports = [
        verify_os(G, budget_flats=30_000),
        verify_graded(G, budget_flats=30_000),
        *verify_all_shapes(G, budget_flats=30_000),
        poincare_table(G, budget_flats=30_000),
    ]
    assert [r.status for r in reports] == ["pass"] * len(reports)


@pytest.mark.skipif(
    not stretch_enabled(), reason="rank 7 and 8 check all needs COXCHAR_STRETCH=1"
)
@pytest.mark.parametrize("family,rank", [("B", 7), ("D", 8), ("B", 8)])
def test_cli_check_all_rank_7_and_8(family, rank):
    assert main(["--family", family, "--rank", str(rank), "--check", "all"]) == 0


@pytest.mark.parametrize("family,rank", [
    ("B", 12), ("D", 12),
    *(
        pytest.param(family, 14, marks=pytest.mark.skipif(
            not stretch_enabled(), reason="rank 14 needs COXCHAR_STRETCH=1"
        ))
        for family in "BD"
    ),
])
def test_cli_regular_beyond_the_paper_range(family, rank):
    """The regular identity past the paper's rank 8: B12 (1 165 classes)
    and D12 by `cli.run`, B14 and D14 under COXCHAR_STRETCH=1."""
    args = cli.build_parser().parse_args(
        ["--family", family, "--rank", str(rank), "--check", "regular"]
    )
    reports, code = cli.run(args)
    assert code == 0 and [r.status for r in reports] == ["pass"]


@pytest.mark.skipif(not stretch_enabled(), reason="B16 regular needs COXCHAR_STRETCH=1")
def test_cli_regular_b16_peaks_under_100_mb():
    """B16 (5 822 classes) holds one induced row at a time, so its regular
    check stays far below the 5 822 x 5 822 table of held rows (~400 MB).
    The peak is the child's own (os.wait4): the suite's RUSAGE_CHILDREN
    would report the largest child it has waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxchar.cli", "--family", "B", "--rank", "16",
         "--check", "regular"],
        env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 100 * 1024  # kilobytes on Linux


class _CountedRow(tuple):
    """The values of an induced row, counting how many rows are alive."""

    alive = peak = 0

    def __new__(cls, values):
        row = super().__new__(cls, values)
        _CountedRow.alive += 1
        _CountedRow.peak = max(_CountedRow.peak, _CountedRow.alive)
        return row

    def __del__(self):
        _CountedRow.alive -= 1


@pytest.mark.parametrize("family", ["B", "D"])
def test_checks_hold_one_induced_row_at_a_time(family, monkeypatch):
    """Each induced row is added into one running sum as it comes: while a
    check runs, no more than two rows are alive at once (the one being
    added and the next), however many bases it induces."""
    real = classfunctions.induce_from_centralizer

    def counted(G, spec):
        return ClassFunction(G, _CountedRow(real(G, spec).values))

    monkeypatch.setattr(classfunctions, "induce_from_centralizer", counted)
    G = GroupDescriptor(family, 5)
    for check in (verify_regular, verify_graded, verify_all_shapes):
        _CountedRow.alive = _CountedRow.peak = 0
        reports = check(G)
        reports = reports if isinstance(reports, list) else [reports]
        assert [r.status for r in reports] == ["pass"] * len(reports)
        assert 1 <= _CountedRow.peak <= 2, check.__name__
        assert _CountedRow.alive == 0


def test_cli_a9_check_all_with_default_budget():
    """A9's 115 975 flats fit the default flat budget."""
    assert main(["--family", "A", "--rank", "9", "--check", "all"]) == 0


def test_cli_b9_is_refused_before_any_flat_is_built(capsys, monkeypatch):
    """The budget is checked against the exact flat count, so the refusal
    is the same line and never reaches the enumeration."""
    from coxchar import lattice

    def enumerate_flats(G):
        raise AssertionError(f"{G} flats enumerated")

    monkeypatch.setattr(lattice, "_points", enumerate_flats)
    assert main(["--family", "B", "--rank", "9", "--check", "poincare"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: flat budget 300000 exceeded while building B9 lattice"
        " (raise --budget-flats)\n"
    )


def test_cli_b9_lattice_exceeds_default_budget(capsys):
    """B9 has 1 832 224 flats: refused by the default budget."""
    assert main(["--family", "B", "--rank", "9", "--check", "poincare"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: flat budget 300000 exceeded while building B9 lattice"
        " (raise --budget-flats)\n"
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("lines", [0, 1])
def test_cli_closed_stdout_is_not_an_error(tmp_path, lines, unbuffered):
    """A reader that goes away (`| head -1`) leaves no traceback, the JSON
    is still written and the exit code is the checks' own.  With lines=0
    the pipe is closed before the program prints, so its first write fails."""
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen(
        [sys.executable, "-m", "coxchar.cli", "--family", "B", "--rank", "3",
         "--check", "all", "--json", str(report)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        for _ in range(lines):
            assert proc.stdout.readline() == b"B3 regular: pass\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert err == ""  # no traceback, no "Exception ignored" line
    reports = json.loads(report.read_text())["reports"]
    assert reports[0]["check"] == "regular"
    assert all(r["status"] == "pass" for r in reports)


class Unreadable:
    """Stands in for Lattice.flats: any read is a failure."""

    def _refuse(self, *args):
        raise AssertionError("a flat was read")

    __getitem__ = __iter__ = __len__ = _refuse


def _counting_fixed_subposet(monkeypatch) -> list:
    """Patches Lattice.fixed_subposet to record the class of every call."""
    counted = []
    fixed = Lattice.fixed_subposet

    def counting(self, k):
        counted.append(k)
        return fixed(self, k)

    monkeypatch.setattr(Lattice, "fixed_subposet", counting)
    return counted


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("D", 4), ("D", 5)])
def test_shape_checks_read_the_class_tables(family, rank, monkeypatch):
    """The checks read one shape -> mu table per class, and each table is
    counted from the cycles of its representative: with no flat readable,
    no shape label kept and the lattice's tables and rows dropped, the
    tables are counted again, the Poincare table is unchanged and os,
    graded and every shape check pass."""
    G = GroupDescriptor(family, rank)
    table = poincare_table(G).table
    lattice = get_lattice(G)
    assert not hasattr(lattice, "shape_labels")
    monkeypatch.setattr(lattice, "flats", Unreadable())
    monkeypatch.delitem(vars(lattice), "tables")
    monkeypatch.delitem(vars(lattice), "rows")
    counted = _counting_fixed_subposet(monkeypatch)
    assert poincare_table(G).table == table
    assert counted and len(lattice.tables) == len(conjugacy_classes(G))
    reports = [verify_os(G), verify_graded(G), *verify_all_shapes(G)]
    assert len(reports) == 2 + len(shapes(G))
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("family,rank", [("B", 3), ("B", 4), ("D", 4)])
def test_check_all_assembles_each_poincare_row_once(family, rank, monkeypatch, capsys):
    """os, graded, the shape checks and the Poincare table all read the
    class tables, but a `--check all` run builds the rows once and counts
    each table once: fixed_subposet runs once per class up to -w, as often
    as the benchmark's frozen lattice.moebius_calls reads on B3 and D4."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for name in ("tables", "rows"):
        monkeypatch.delitem(vars(lattice), name, raising=False)
    built = []
    rows = Lattice.rows.func

    def counted_rows(self):
        built.append(self.G)
        return rows(self)

    counted_property = cached_property(counted_rows)
    counted_property.__set_name__(Lattice, "rows")
    monkeypatch.setattr(Lattice, "rows", counted_property)
    counted = _counting_fixed_subposet(monkeypatch)
    assert main(["--family", family, "--rank", str(rank), "--check", "all"]) == 0
    assert built == [G]
    assert sorted(set(counted)) == sorted(counted)
    assert len(counted) == {"B3": 5, "B4": 14, "D4": 10}[str(G)]


def _without_timing(path):
    reports = json.loads(path.read_text())["reports"]
    for report in reports:
        del report["timing_ms"]
    return reports


@pytest.mark.parametrize("args", [
    ["--family", "D", "--rank", "5", "--check", "all"],
    ["--family", "B", "--rank", "7", "--check", "regular"],
], ids=["D5 all", "B7 regular"])
def test_frozen_exit_keeps_outputs_whole(args, tmp_path, capsys):
    """A CLI process that exits with its heap frozen (no final collection)
    prints and writes what an in-process run of main does, and exits 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    child = tmp_path / "child.json"
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", *args, "--json", str(child)],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    here = tmp_path / "here.json"
    assert main([*args, "--json", str(here)]) == 0
    assert out.stdout == capsys.readouterr().out
    assert _without_timing(child) == _without_timing(here)


def test_frozen_exit_keeps_the_budget_error():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", "--family", "B", "--rank", "9",
         "--check", "poincare"],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "budget error: flat budget 300000 exceeded while building B9 lattice"
        " (raise --budget-flats)\n"
    )


def test_cli_freezes_the_heap_only_at_exit():
    """Importing the CLI and returning from main leave the collector as
    they found it, so in-process callers keep theirs; a hook registered
    before the import runs after the CLI's and sees the heap frozen."""
    probe = (
        "import atexit, contextlib, gc, io\n"
        "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
        "before = gc.isenabled(), gc.get_threshold()\n"
        "from coxchar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--family', 'B', '--rank', '3', '--check', 'all'])\n"
        "print(code, (gc.isenabled(), gc.get_threshold()) == before,"
        " gc.get_freeze_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "0 True 0\nfrozen at exit True\n"


def test_cli_refuses_a_group_over_the_class_limit():
    """A1200 has p(1201) classes: the CLI counts them without listing one
    and exits 2 with one `error:` line, no traceback, well within 0.5 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", "--family", "A", "--rank", "1200",
         "--check", "regular"],
        env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "error: A1200 has 47944117779189310556261099429006223 conjugacy classes,"
        f" over the limit of {cli.CLASS_LIMIT}\n"
    )
    assert elapsed < 0.5


@pytest.mark.parametrize("family,rank", [("A", 5999), ("B", 6000), ("D", 6000)])
def test_cli_refuses_a_degree_just_under_the_class_limit_at_once(family, rank):
    """Degree 6000 passes the degree bound, so the classes are counted,
    by the pentagonal recurrence: the refusal still comes within 0.5 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", "--family", family, "--rank",
         str(rank), "--check", "regular"],
        env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    G = GroupDescriptor(family, rank)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        f"error: {G} has {groups.class_count(G)} conjugacy classes,"
        f" over the limit of {cli.CLASS_LIMIT}\n"
    )
    assert elapsed < 0.5


@pytest.mark.parametrize("rank", [10**8, 10**18])
@pytest.mark.parametrize("family", "ABD")
def test_cli_refuses_a_huge_rank_before_counting_classes(family, rank):
    """A group of degree n has at least n classes (the hooks (n - k, 1^k)),
    so a degree over the limit is refused at once, classes uncounted."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", "--family", family, "--rank",
         str(rank), "--check", "regular"],
        env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    degree = rank + 1 if family == "A" else rank
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        f"error: {family}{rank} has at least {degree} conjugacy classes,"
        f" over the limit of {cli.CLASS_LIMIT}\n"
    )
    assert elapsed < 0.5


def test_cli_class_limit_admits_its_own_count(monkeypatch, capsys):
    """With the limit at B4's own 20 classes, B4 runs; B5 (36 classes) is
    refused with exit 2 before any class is listed."""
    monkeypatch.setattr(cli, "CLASS_LIMIT", 20)
    assert main(["--family", "B", "--rank", "4", "--check", "all"]) == 0
    capsys.readouterr()

    def listed(G):
        raise AssertionError(f"listed the classes of {G}")

    monkeypatch.setattr(groups, "_classes", listed)
    assert main(["--family", "B", "--rank", "5", "--check", "regular"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: B5 has 36 conjugacy classes, over the limit of 20\n"


def test_cli_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(G, spec):
        raise AssertionError("class tally weights do not sum to |C|")

    monkeypatch.setattr(classfunctions, "induce_from_centralizer", broken)
    code = main(["--family", "B", "--rank", "3", "--check", "regular"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: class tally weights do not sum to |C|\n"


def test_verify_shape_reports():
    G = GroupDescriptor("D", 4)
    report = verify_shape(G, Shape((2, 2), "-"))
    assert report.status == "pass"
    assert report.check == "shape 2+2^-"
    report = verify_os(G)
    assert report.status == "pass"


def test_cli_unwritable_json_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main([
        "--family", "B", "--rank", "3", "--check", "regular", "--json", str(target),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


needs_dev_full = pytest.mark.skipif(
    not Path("/dev/full").exists(), reason="needs /dev/full"
)
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
def test_cli_report_that_cannot_be_written_is_usage_error():
    """A --json write that fails once the checks have passed exits 2 with
    one line, not a traceback and the "verification failed" code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "coxchar.cli", "--family", "B", "--rank", "3",
         "--check", "regular", "--json", "/dev/full"],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, "B3 regular: pass\n")
    assert out.stderr == f"error: cannot write /dev/full: {NO_SPACE}\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_cli_stdout_that_cannot_be_written_is_usage_error(tmp_path, unbuffered):
    """A stdout that cannot be written stops the printing with one line and
    exit 2; the --json report is still written whole."""
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "coxchar.cli", "--family", "B", "--rank", "3",
             "--check", "all", "--json", str(report)],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 2
    assert out.stderr == f"error: cannot write stdout: {NO_SPACE}\n"
    reports = json.loads(report.read_text())["reports"]
    assert len(reports) == 11 and all(r["status"] == "pass" for r in reports)


@pytest.mark.parametrize("flag", ["--budget-elements", "--budget-flats"])
def test_cli_negative_budget_is_usage_error(flag):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "B", "--rank", "3", "--check", "regular", flag, "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--budget-elements", "--budget-flats"])
@pytest.mark.parametrize("value", ["x", "1.5"])
def test_cli_non_integer_budget_reads_like_rank(flag, value, capsys):
    """A budget that is not an integer is refused in the words argparse
    uses for --rank, and a negative one keeps its own message."""

    def usage_error(*argv):
        with pytest.raises(SystemExit) as exc:
            main(["--family", "B", "--check", "regular", *argv])
        assert exc.value.code == 2
        return capsys.readouterr().err.splitlines()[-1]

    assert usage_error("--rank", value).endswith(
        f"argument --rank: invalid int value: '{value}'"
    )
    assert usage_error("--rank", "3", flag, value).endswith(
        f"argument {flag}: invalid int value: '{value}'"
    )
    assert usage_error("--rank", "3", flag, "-1").endswith(
        f"argument {flag}: budget must be non-negative, got -1"
    )


@pytest.mark.parametrize("rank", ["0", "-2"])
@pytest.mark.parametrize("family", ["B", "E"])
def test_cli_rank_below_one_is_usage_error(family, rank, capsys):
    """Every family, the skipped ones included, rejects the rank as argparse
    rejects a negative budget."""
    with pytest.raises(SystemExit) as exc:
        main(["--family", family, "--rank", rank, "--check", "regular"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --rank: rank must be at least 1" in captured.err


def test_cli_failed_run_leaves_an_existing_report(tmp_path, monkeypatch):
    """The --json file is opened only after the checks have run: a budget
    error, a shape that does not parse and an internal error leave a report
    already at that path untouched."""
    out = tmp_path / "report.json"
    out.write_text('{"reports": []}\n')
    for argv, want in (
        (["--family", "B", "--rank", "9", "--check", "poincare"], 2),
        (["--family", "B", "--rank", "3", "--check", "shape", "--shape", "2+x"], 2),
    ):
        assert main(argv + ["--json", str(out)]) == want
        assert out.read_text() == '{"reports": []}\n'

    def broken(G, spec):
        raise AssertionError("class tally weights do not sum to |C|")

    monkeypatch.setattr(classfunctions, "induce_from_centralizer", broken)
    argv = ["--family", "B", "--rank", "3", "--check", "regular", "--json", str(out)]
    assert main(argv) == 3
    assert out.read_text() == '{"reports": []}\n'


TRIAGE = "<inner products of difference>"


def test_failing_graded_and_shape_carry_triage(monkeypatch):
    real = classfunctions.induce_from_centralizer

    def off_by_trivial(G, spec):
        return real(G, spec) + trivial_character(G)

    monkeypatch.setattr(classfunctions, "induce_from_centralizer", off_by_trivial)
    G = GroupDescriptor("B", 2)
    graded = verify_graded(G)
    assert graded.status == "fail"
    failing = {e["degree"] for e in graded.discrepancies if e["class"] != TRIAGE}
    triaged = [e["degree"] for e in graded.discrepancies if e["class"] == TRIAGE]
    assert failing and sorted(triaged) == sorted(failing)
    shape = verify_shape(G, shapes(G)[0])
    assert shape.status == "fail"
    assert [e["class"] for e in shape.discrepancies].count(TRIAGE) == 1
    assert shape.discrepancies[-1]["class"] == TRIAGE


# One datum of chi changed: (key, which of (a, s, r), new value from the
# old), and the cuspidal labels of the shapes it must fail.  A shape's
# identity reduces to its blocks' and its zero block's, so only the shapes
# whose cuspidal classes carry the changed datum fail.  Type A centralizers
# negate no block, so the r change fails no shape there.
CHI_CHANGES = {
    "s flipped on key 3": (
        3, 1, lambda v: 1 - v,
        lambda G, labels: any(mu.pos.count(3) >= 2 for mu in labels),
    ),
    "a = 0 on key 3": (
        3, 0, lambda v: 0,
        lambda G, labels: any(3 in mu.pos for mu in labels),
    ),
    "r flipped on key 2": (
        2, 2, lambda v: 1 - v,
        lambda G, labels: G.family != "A" and any(2 in mu.pos for mu in labels),
    ),
    "s flipped on key -1": (
        -1, 1, lambda v: 1 - v,
        lambda G, labels: any(mu.neg.count(1) >= 2 for mu in labels),
    ),
}
FAILING_SHAPES = {  # change -> A8, B8, D8
    "s flipped on key 3": (3, 4, 3),
    "a = 0 on key 3": (11, 19, 14),
    "r flipped on key 2": (0, 30, 26),
    "s flipped on key -1": (0, 30, 23),
}


@pytest.mark.parametrize("column,family", enumerate("ABD"))
def test_shape_check_fails_exactly_where_chi_is_changed(column, family, monkeypatch):
    """With one datum of chi changed, the shape checks that fail are
    exactly the predicted ones: none is missed, none is extra, and a change
    predicted to fail some shape does fail one."""
    from coxchar import characters
    from coxchar import lattice as lattice_module
    from coxchar.shapes import cuspidal_labels

    monkeypatch.setattr(lattice_module, "_LATTICES", {})  # freed after the test
    real = characters.chi_char
    G = GroupDescriptor(family, 8)
    for change, (key, field, new, predicted) in CHI_CHANGES.items():

        def changed(G, label, tag=None):
            spec = real(G, label, tag)
            values = dict(spec.values)
            if key in values:
                triple = list(values[key])
                triple[field] = new(triple[field])
                values[key] = tuple(triple)
            return characters.LinearCharacterSpec(G, label, tag, values, spec.name)

        monkeypatch.setattr(characters, "chi_char", changed)
        failed = {
            report.check for report in verify_all_shapes(G) if report.status == "fail"
        }
        expected = {
            f"shape {shape}" for shape in shapes(G)
            if predicted(G, [mu for mu, _ in cuspidal_labels(G, shape)])
        }
        assert failed == expected, change
        assert len(expected) == FAILING_SHAPES[change][column], change


def _at_identity(G):
    """1 on the identity class, 0 elsewhere: not a character, so the
    triage inner products are proper fractions."""
    return ClassFunction(G, (1,) + (0,) * (len(conjugacy_classes(G)) - 1))


# Frozen from the Cyc-valued class functions that preceded integer values:
# exit code, number of discrepancy entries, sha256 of the JSON entries
# (check name and entry, sort_keys) and of stdout, and for B3 every triage
# entry as (check, degree, expected, got).  The two `trivial` entries were
# re-frozen when os began inducing chi_w in place of epsilon times
# Ind(alpha_w phi_w): the trivial character added to each induction now
# leaves os's side off by N (the number of classes) times 1, where it was
# off by N times epsilon, so only the os strings moved.  The `identity`
# entries did not move: epsilon is 1 at the identity.
FROZEN_FAILING_REPORTS = {
    ("trivial", "B", 3): (
        1, 143,
        "47af3b3dbb105fe2d4ece1419f40afe23b8d767a8a1a9ef835daf78f7e4a37c6",
        "f2fe06bfc8dc08a89360f115d80316947cc2713e1602120436e0c6053859db18",
        [
            ("regular", None, "-10", "0"), ("os", None, "-10", "0"),
            ("graded", 0, "-1", "0"), ("graded", 1, "-2", "0"),
            ("graded", 2, "-4", "0"), ("graded", 3, "-3", "0"),
            ("shape ()", None, "-3", "0"), ("shape 1", None, "-2", "0"),
            ("shape 1+1", None, "-1", "0"), ("shape 2", None, "-1", "0"),
            ("shape 1+1+1", None, "-1", "0"), ("shape 2+1", None, "-1", "0"),
            ("shape 3", None, "-1", "0"),
        ],
    ),
    ("trivial", "D", 4): (
        1, 252,
        "57f1e177349caa8e5def67103424e672145f0ebc3ce4298950c968041113f463",
        "26fd928b43afb42fd5ae2e48bbff13e3548efdae16a4acab0d63fe7d90b54975",
        None,
    ),
    ("identity", "B", 3): (
        1, 26,
        "84126eb51aefb76ccb8bb97e9c9f7764fddcc73cbe7f7b559a151cdfafae872e",
        "851a18ca601e3134f4266fd792e9d9153b35b72bd364d22cae4d0d510dadde7e",
        [
            ("regular", None, "-5/24", "-5/24"), ("os", None, "-5/24", "-5/24"),
            ("graded", 0, "-1/48", "-1/48"), ("graded", 1, "-1/24", "-1/24"),
            ("graded", 2, "-1/12", "-1/12"), ("graded", 3, "-1/16", "-1/16"),
            ("shape ()", None, "-1/16", "-1/16"),
            ("shape 1", None, "-1/24", "-1/24"),
            ("shape 1+1", None, "-1/48", "-1/48"),
            ("shape 2", None, "-1/48", "-1/48"),
            ("shape 1+1+1", None, "-1/48", "-1/48"),
            ("shape 2+1", None, "-1/48", "-1/48"),
            ("shape 3", None, "-1/48", "-1/48"),
        ],
    ),
    ("identity", "D", 4): (
        1, 36,
        "6a78f5c6ebb906da1623b454dbed195956cb1d833e0b2a87de0e5c76eb9c12f9",
        "5a592a6517dd5c29e43e17512a85108ed9395316a86e6fc605c2adead6a6c6a8",
        None,
    ),
}


@pytest.mark.parametrize(
    "perturbation,family,rank", sorted(FROZEN_FAILING_REPORTS), ids=str
)
def test_failing_report_strings_are_frozen(
    perturbation, family, rank, monkeypatch, capsys, tmp_path
):
    """Every check fails with induction perturbed (off by the trivial
    character, or by 1 at the identity); the printed and JSON discrepancy
    and triage strings, inner-product fractions included, are unchanged."""
    real = classfunctions.induce_from_centralizer
    offset = trivial_character if perturbation == "trivial" else _at_identity
    monkeypatch.setattr(
        classfunctions, "induce_from_centralizer",
        lambda G, spec: real(G, spec) + offset(G),
    )
    target = tmp_path / "report.json"
    code = main([
        "--family", family, "--rank", str(rank), "--check", "all",
        "--json", str(target),
    ])
    stdout = capsys.readouterr().out
    reports = json.loads(target.read_text())["reports"]
    entries = [[r["check"], e] for r in reports for e in r["discrepancies"]]
    digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode())
    triage = [
        (check, e.get("degree"), e["expected"], e["got"])
        for check, e in entries
        if e["class"] == TRIAGE
    ]
    want_code, count, want_digest, want_stdout, want_triage = (
        FROZEN_FAILING_REPORTS[perturbation, family, rank]
    )
    assert (code, len(entries)) == (want_code, count)
    if want_triage is not None:
        assert triage == want_triage
    assert digest.hexdigest() == want_digest
    assert hashlib.sha256(stdout.encode()).hexdigest() == want_stdout


def test_checks_build_no_cyc():
    """No module of the package defines or imports Cyc: every check runs
    on integer class functions, and Cyc lives with the test oracles."""
    assert not hasattr(coxchar, "Cyc")
    for path in Path(coxchar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assert node.name != "Cyc", path.name
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
                assert "Cyc" not in names, path.name


def test_oracles_import_no_private_name_of_the_library():
    """tests/oracles.py keeps its own copy of every helper it needs: an
    underscore-prefixed name of coxchar, imported or read off an imported
    module, would move the oracle together with the code it checks."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxchar"):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, (node.module, private)
            if node.module == "coxchar":
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname or a.name.split(".")[0]
                for a in node.names if a.name.startswith("coxchar")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            assert not (isinstance(root, ast.Name) and root.id in modules), node.attr


def test_cli_import_loads_no_dataclasses_fractions_or_linalg():
    """`import coxchar.cli` loads only what a run uses: the value types are
    namedtuples, Fraction is imported by inner_product alone, and linalg
    serves the test oracles.  Of coxchar it loads the CLI, the checks and
    the class list: `groups` imports no coxchar module but `partitions`."""
    probe = (
        "import sys; before = set(sys.modules); import coxchar.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    loaded = ast.literal_eval(out)
    for name in ("dataclasses", "fractions", "coxchar.linalg"):
        assert name not in loaded
    assert sorted(m for m in loaded if m.startswith("coxchar")) == [
        "coxchar", "coxchar.cli", "coxchar.groups", "coxchar.partitions",
        "coxchar.verify",
    ]


def _modules_loaded_by(check):
    """Exit code and sorted coxchar modules of a B4 run of this check."""
    probe = (
        "import sys; from coxchar.cli import main; "
        f"code = main(['--family', 'B', '--rank', '4', '--check', {check!r}]); "
        "print(code, sorted(m for m in sys.modules if m.startswith('coxchar')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    code, loaded = out.splitlines()[-1].split(" ", 1)
    return code, ast.literal_eval(loaded)


def test_regular_run_loads_no_lattice():
    """`--check regular` loads exactly the modules induction needs: the
    CLI and the checks import `lattice` and `shapes` only when a lattice or
    shape check runs, and every imported module is compiled at start-up
    where no bytecode is cached.  No run builds an element: a class is its
    label, and even `--check all` loads no signed permutations."""
    assert _modules_loaded_by("regular") == ("0", [
        "coxchar", "coxchar.centralizers", "coxchar.characters",
        "coxchar.classfunctions", "coxchar.cli", "coxchar.cyclotomic",
        "coxchar.groups", "coxchar.partitions", "coxchar.verify",
    ])
    code, loaded = _modules_loaded_by("all")
    assert code == "0" and "coxchar.lattice" in loaded
    assert "coxchar.signedperm" not in loaded


def test_poincare_run_loads_no_induction():
    """`--check poincare` loads no induction code: the checks import
    `characters` and `classfunctions` only when they induce, and `lattice`
    imports `ClassFunction` only when it builds one.  It loads `cyclotomic`
    with `lattice`, which takes the Moebius function there."""
    assert _modules_loaded_by("poincare") == ("0", [
        "coxchar", "coxchar.cli", "coxchar.cyclotomic",
        "coxchar.groups", "coxchar.lattice", "coxchar.partitions",
        "coxchar.shapes", "coxchar.verify",
    ])


# Element-by-element character evaluation, which lives with the test
# oracles: induction has one path, through the class tallies.  So do the
# roots of unity it multiplies: the library reads a value as an exponent.
# So does a character's value at a per-family summary (summary_value): the
# library values each family's tally cycle by cycle of the block permutation.
# Elements and the class of an element live there too: a class is its
# label.  So does the reduction modulo cyclotomic polynomials: a value is
# read off its Galois orbits.  So does the shape of a flat: a flat is its
# bare point.  So do the type-B and type-D rules of phi_w written out on
# their own, and the oracles' copies of z_lam and of the split rule.
ORACLE_ONLY = {
    "evaluate", "evaluate_summaries", "summary_value", "Root", "ONE", "MINUS_ONE",
    "root", "root_mul", "root_pow", "coordinates", "class_function_of_spec", "class_rep",
    "base_rep", "CentralizerCoordinates", "SignedPermutation", "w_mu",
    "signed_cycle_type", "cycle_side_parity", "d_split_side", "class_key",
    "coxeter_generators", "mu_bar", "parse_signed_partition", "root_conj",
    "reflection_exponents", "_stable_structures", "_interval_mu", "_zero_mu",
    "cyclotomic_polynomial", "_poly_divide", "_power_table", "_number_mu",
    "Flat", "shape_of_point", "phi_B", "psi", "_z_lam", "_splits",
}


def test_no_module_imports_dataclasses_or_linalg():
    """Only linalg itself, kept for the oracles, may use either, and no
    module defines or assigns a name of ORACLE_ONLY."""
    for path in Path(coxchar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in ORACLE_ONLY, (path.name, node.name)
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in ORACLE_ONLY, (path.name, node.id)
                continue
            if path.name == "linalg.py":
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "dataclasses", path.name
                assert module.rsplit(".", 1)[-1] != "linalg", path.name
