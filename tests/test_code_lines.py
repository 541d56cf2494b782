import subprocess
import sys
from pathlib import Path

import coxchar

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


def _counts(directory):
    out = subprocess.run(
        [sys.executable, str(TOOL), str(directory)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split(" ", 1) for line in out.splitlines()]
    return {name: int(count) for count, name in rows}


def test_total_is_the_sum_of_the_modules():
    counts = _counts(Path(coxchar.__file__).parent)
    total = counts.pop("total")
    assert len(counts) > 1 and total == sum(counts.values())


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # counted: code precedes the comment\n"
        '    """Function docstring."""\n'
        '    text = """a string over\n'
        'two lines, not a docstring"""\n'
        "    return (x,\n"
        "            text)\n"
    )
    assert _counts(tmp_path) == {str(tmp_path / "m.py"): 5, "total": 5}
