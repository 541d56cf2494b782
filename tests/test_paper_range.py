"""The paper's range, frozen: A7, A8, B7, B8, D7 and D8.

tests/data/paper_range.json holds, per group, its classes in order, each
with its Poincare row and its shape -> sum of mu_w table (nonzero
entries, in shapes() order).  The test recomputes both and names the
first group, class and shape that differ.  Both sides of every check
share the class listing and the shapes, so a fault there could move
both together and still pass; the fixture catches it.  It changes only
with a stated reason.

Rewrite the fixture with `PYTHONPATH=src python tests/test_paper_range.py`.
"""

import json
from pathlib import Path

from coxchar.groups import GroupDescriptor, conjugacy_classes
from coxchar.lattice import Lattice
from coxchar.shapes import shapes

FIXTURE = Path(__file__).parent / "data" / "paper_range.json"
GROUPS = [("A", 7), ("A", 8), ("B", 7), ("B", 8), ("D", 7), ("D", 8)]


def paper_range():
    """Group -> [class, Poincare row, {shape: sum of mu_w}] per class.  The
    tables read no flat, so none is built."""
    out = {}
    for family, rank in GROUPS:
        G = GroupDescriptor(family, rank)
        lattice = Lattice(G, ())
        rows = []
        for k, cls in enumerate(conjugacy_classes(G)):
            table = lattice.tables[k]
            rows.append([
                str(cls),
                list(lattice.poincare_polynomial(k)),
                {str(s): table[s] for s in shapes(G) if s in table},
            ])
        out[str(G)] = rows
    return out


def test_paper_range_is_frozen():
    frozen = json.loads(FIXTURE.read_text())
    computed = paper_range()
    assert list(computed) == list(frozen)
    for group, rows in computed.items():
        labels = [row[0] for row in rows]
        assert labels == [row[0] for row in frozen[group]], f"{group}: class list"
        for (label, row, table), (_, row0, table0) in zip(rows, frozen[group]):
            assert row == row0, f"{group} {label}: Poincare row"
            for shape in dict.fromkeys([*table0, *table]):
                assert table.get(shape) == table0.get(shape), (
                    f"{group} {label} shape {shape}"
                )


if __name__ == "__main__":
    lines = []
    for group, rows in paper_range().items():
        body = ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
        lines.append(f'"{group}": [\n{body}\n]')
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
