"""The headline identity checks, as machine-readable reports.

Every check compares two exactly computed class functions and reports the
classes (or degrees) where they differ:

* regular: the regular character against the sum over all classes of the
  characters phi_w induced from centralizers;
* os: the total arrangement-cohomology character against the sum over
  all classes of Ind(chi_w), chi_w = alpha_w epsilon phi_w (equal to
  epsilon * sum of Ind(alpha_w phi_w), as epsilon is restricted from W);
* graded: degree by degree, cohomology in degree p against the classes of
  reflection length p inducing chi_w = alpha_w epsilon phi_w;
* shape: the per-shape summand of the cohomology character against the
  cuspidal classes of that shape.

Each check imports what it runs when it runs: the checks that induce
`characters` and `classfunctions`, the lattice checks `lattice`, and the
shape checks `shapes`.  So a regular check loads no lattice code and a
Poincare table no induction code.
"""

from __future__ import annotations

import time
from collections import namedtuple

from .groups import (
    DEFAULT_FLAT_BUDGET,
    GroupDescriptor,
    conjugacy_classes,
    reflection_length,
)

__all__ = [
    "VerificationReport",
    "verify_regular",
    "verify_os",
    "verify_graded",
    "verify_shape",
    "verify_all_shapes",
    "poincare_table",
]


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "group check status discrepancies timing_ms config table",
        defaults=(None,),
    )
):
    """One check's result: discrepancies is a list of dicts, config a dict
    and table, only for a Poincare table, a list of [class, coefficients]
    rows."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "skipped")

    def to_dict(self) -> dict:
        out = self._asdict()
        if self.table is None:
            del out["table"]
        return out

    def summary(self) -> str:
        """One line; a skipped report gives its reason, which its one
        entry carries as "skipped: <reason>" for the JSON."""
        text = f"{self.group} {self.check}: {self.status}"
        if self.status == "skipped":
            reasons = (e["got"].removeprefix("skipped: ") for e in self.discrepancies)
            text += f" ({'; '.join(reasons)})"
        elif self.discrepancies:
            text += f" ({len(self.discrepancies)} discrepancies)"
        return text


def _report(G, check, started, discrepancies, budget_flats=None, table=None):
    """The report of one check: failed iff there are discrepancies."""
    return VerificationReport(
        str(G),
        check,
        "fail" if discrepancies else "pass",
        discrepancies,
        int((time.perf_counter() - started) * 1000),
        {} if budget_flats is None else {"budget_flats": budget_flats},
        table,
    )


def _compare(G, expected, got, degree=None):
    """One entry per class where got differs from expected; on failure, the
    inner products of the difference against triv and sign as triage."""
    classes = conjugacy_classes(G)
    tag = {} if degree is None else {"degree": degree}
    out = [
        {"class": str(classes[k]), "expected": str(a), "got": str(b), **tag}
        for k, a, b in expected.discrepancies(got)
    ]
    if out:
        from .classfunctions import (
            inner_product,
            sign_class_function,
            trivial_character,
        )

        diff = expected - got
        out.append({
            "class": "<inner products of difference>",
            "expected": str(inner_product(diff, trivial_character(G))),
            "got": str(inner_product(diff, sign_class_function(G))),
            **tag,
        })
    return out


def _induced(G, character, bases):
    """Sum of Ind(character(G, label, tag)) over the keys (label, tag) in
    bases, one induction each: a ClassFunction.  character is a rule such
    as characters.phi_for_class or chi_char; each induced row is added to
    one running sum as it comes, so no more than one is alive at a time."""
    from .classfunctions import induce_from_centralizer, zero_function

    return sum(
        (induce_from_centralizer(G, character(G, *key)) for key in bases),
        zero_function(G),
    )


def verify_regular(G: GroupDescriptor) -> VerificationReport:
    """Sum of Ind(phi_w) over all classes against the regular character."""
    from .characters import phi_for_class
    from .classfunctions import regular_character

    started = time.perf_counter()
    got = _induced(G, phi_for_class, (cls.key for cls in conjugacy_classes(G)))
    return _report(G, "regular", started, _compare(G, regular_character(G), got))


def verify_os(
    G: GroupDescriptor,
    budget_flats=DEFAULT_FLAT_BUDGET,
) -> VerificationReport:
    """Total cohomology character against the sum of Ind(chi_w) over all
    classes, which is epsilon * sum Ind(alpha_w phi_w) since epsilon is
    restricted from W: epsilon Ind(psi) = Ind(epsilon psi)."""
    from .characters import chi_char
    from .classfunctions import zero_function
    from .lattice import get_lattice, graded_os_character

    started = time.perf_counter()
    lattice = get_lattice(G, budget_flats)
    expected = sum(graded_os_character(lattice), zero_function(G))
    got = _induced(G, chi_char, (cls.key for cls in conjugacy_classes(G)))
    return _report(G, "os", started, _compare(G, expected, got), budget_flats)


def verify_graded(
    G: GroupDescriptor,
    budget_flats=DEFAULT_FLAT_BUDGET,
) -> VerificationReport:
    """Degree by degree: H^p against classes of reflection length p."""
    from .characters import chi_char
    from .lattice import get_lattice, graded_os_character

    started = time.perf_counter()
    lattice = get_lattice(G, budget_flats)
    by_length: dict[int, list] = {}
    for cls in conjugacy_classes(G):
        by_length.setdefault(reflection_length(G, cls.label), []).append(cls.key)
    disc = []
    for p, expected in enumerate(graded_os_character(lattice)):
        got = _induced(G, chi_char, by_length[p])
        disc.extend(_compare(G, expected, got, degree=p))
    return _report(G, "graded", started, disc, budget_flats)


def verify_shape(
    G: GroupDescriptor,
    shape,
    budget_flats=DEFAULT_FLAT_BUDGET,
) -> VerificationReport:
    """The per-shape refinement: the shape's (a shapes.Shape) orbit summand
    of the cohomology character against its cuspidal classes."""
    from .characters import chi_char
    from .lattice import get_lattice, shape_os_character
    from .shapes import cuspidal_labels

    started = time.perf_counter()
    lattice = get_lattice(G, budget_flats)
    expected = shape_os_character(lattice, shape)
    disc = _compare(G, expected, _induced(G, chi_char, cuspidal_labels(G, shape)))
    return _report(G, f"shape {shape}", started, disc, budget_flats)


def verify_all_shapes(G, budget_flats=DEFAULT_FLAT_BUDGET):
    from .shapes import shapes

    return [verify_shape(G, shape, budget_flats) for shape in shapes(G)]


def poincare_table(
    G: GroupDescriptor,
    budget_flats=DEFAULT_FLAT_BUDGET,
) -> VerificationReport:
    """P_w(t) for every class in canonical order, ascending coefficients."""
    from .lattice import get_lattice

    started = time.perf_counter()
    lattice = get_lattice(G, budget_flats)
    table = [
        [str(cls), list(lattice.poincare_polynomial(k))]
        for k, cls in enumerate(conjugacy_classes(G))
    ]
    return _report(G, "poincare", started, [], budget_flats, table)


def format_poincare_table(report: VerificationReport) -> str:
    lines = []
    for label, coeffs in report.table:
        lines.append(f"{label}: " + " ".join(str(c) for c in coeffs))
    return "\n".join(lines)
