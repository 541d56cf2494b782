"""The headline identity checks, as machine-readable reports.

Every check compares two exactly computed class functions and reports the
classes (or degrees) where they differ:

* regular: the regular character against the sum over all classes of the
  characters phi_w induced from centralizers;
* os: the total arrangement-cohomology character against
  epsilon * sum of Ind(alpha_w phi_w);
* graded: degree by degree, cohomology in degree p against the classes of
  reflection length p inducing chi_w = alpha_w epsilon phi_w;
* shape: the per-shape summand of the cohomology character against the
  cuspidal classes of that shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .characters import alpha_char, chi_char, phi_for_class, spec_product
from .classfunctions import (
    ClassFunction,
    induce_from_centralizer,
    regular_character,
    sign_class_function,
    zero_function,
)
from .groups import (
    DEFAULT_ELEMENT_BUDGET,
    GroupDescriptor,
    conjugacy_classes,
    reflection_length,
)
from .lattice import (
    DEFAULT_FLAT_BUDGET,
    Lattice,
    get_lattice,
    graded_os_character,
    shape_os_character,
)
from .shapes import Shape, cuspidal_labels, shapes

__all__ = [
    "VerificationReport",
    "verify_regular",
    "verify_os",
    "verify_graded",
    "verify_shape",
    "verify_all_shapes",
    "poincare_table",
]


@dataclass
class VerificationReport:
    group: str
    check: str
    status: str
    discrepancies: list[dict] = field(default_factory=list)
    timing_ms: int = 0
    config: dict = field(default_factory=dict)
    table: list | None = None

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "skipped")

    def to_dict(self) -> dict:
        out = {
            "group": self.group,
            "check": self.check,
            "status": self.status,
            "discrepancies": self.discrepancies,
            "timing_ms": self.timing_ms,
            "config": self.config,
        }
        if self.table is not None:
            out["table"] = self.table
        return out

    def summary(self) -> str:
        text = f"{self.group} {self.check}: {self.status}"
        if self.discrepancies:
            text += f" ({len(self.discrepancies)} discrepancies)"
        return text


def _finish(report: VerificationReport, started: float) -> VerificationReport:
    report.timing_ms = int((time.perf_counter() - started) * 1000)
    return report


def _config(budget_elements, budget_flats=None):
    config = {"budget_elements": budget_elements}
    if budget_flats is not None:
        config["budget_flats"] = budget_flats
    return config


def _sum_inductions(G, specs, budget) -> ClassFunction:
    total = zero_function(G)
    for spec in specs:
        total = total + induce_from_centralizer(G, spec, budget)
    return total


def _discrepancies(G, expected: ClassFunction, got: ClassFunction, degree=None):
    classes = conjugacy_classes(G)
    out = []
    for k, a, b in expected.discrepancies(got):
        entry = {"class": str(classes[k]), "expected": str(a), "got": str(b)}
        if degree is not None:
            entry["degree"] = degree
        out.append(entry)
    return out


def _triage(G, expected, got, discrepancies, degree=None):
    """On failure, inner products of the difference against triv and sign."""
    if not discrepancies:
        return
    from .classfunctions import inner_product, trivial_character

    diff = expected - got
    entry = {
        "class": "<inner products of difference>",
        "expected": str(inner_product(diff, trivial_character(G))),
        "got": str(inner_product(diff, sign_class_function(G))),
    }
    if degree is not None:
        entry["degree"] = degree
    discrepancies.append(entry)


def verify_regular(
    G: GroupDescriptor,
    budget_elements=DEFAULT_ELEMENT_BUDGET,
) -> VerificationReport:
    """Sum of Ind(phi_w) over all classes against the regular character."""
    started = time.perf_counter()
    classes = conjugacy_classes(G, budget_elements)
    specs = [phi_for_class(G, cls.label, cls.tag) for cls in classes]
    total = _sum_inductions(G, specs, budget_elements)
    expected = regular_character(G)
    disc = _discrepancies(G, expected, total)
    _triage(G, expected, total, disc)
    report = VerificationReport(
        str(G),
        "regular",
        "pass" if not disc else "fail",
        disc,
        config=_config(budget_elements),
    )
    return _finish(report, started)


def _os_total(lattice: Lattice) -> ClassFunction:
    graded = graded_os_character(lattice)
    total = zero_function(lattice.G)
    for piece in graded:
        total = total + piece
    return total


def verify_os(
    G: GroupDescriptor,
    budget_elements=DEFAULT_ELEMENT_BUDGET,
    budget_flats=DEFAULT_FLAT_BUDGET,
    lattice: Lattice | None = None,
) -> VerificationReport:
    """Total cohomology character against epsilon * sum Ind(alpha_w phi_w)."""
    started = time.perf_counter()
    classes = conjugacy_classes(G, budget_elements)
    lattice = lattice or get_lattice(G, budget_flats)
    expected = _os_total(lattice)
    specs = [
        spec_product(
            alpha_char(G, cls.label, cls.tag), phi_for_class(G, cls.label, cls.tag)
        )
        for cls in classes
    ]
    total = _sum_inductions(G, specs, budget_elements) * sign_class_function(G)
    disc = _discrepancies(G, expected, total)
    _triage(G, expected, total, disc)
    report = VerificationReport(
        str(G),
        "os",
        "pass" if not disc else "fail",
        disc,
        config=_config(budget_elements, budget_flats),
    )
    return _finish(report, started)


def verify_graded(
    G: GroupDescriptor,
    budget_elements=DEFAULT_ELEMENT_BUDGET,
    budget_flats=DEFAULT_FLAT_BUDGET,
    lattice: Lattice | None = None,
) -> VerificationReport:
    """Degree by degree: H^p against classes of reflection length p."""
    started = time.perf_counter()
    classes = conjugacy_classes(G, budget_elements)
    lattice = lattice or get_lattice(G, budget_flats)
    graded = graded_os_character(lattice)
    by_length: dict[int, list] = {}
    for cls in classes:
        by_length.setdefault(reflection_length(G, cls.rep), []).append(cls)
    disc = []
    for p in range(G.rank + 1):
        specs = [
            chi_char(G, cls.label, cls.tag) for cls in by_length.get(p, [])
        ]
        total = _sum_inductions(G, specs, budget_elements)
        degree_disc = _discrepancies(G, graded[p], total, degree=p)
        _triage(G, graded[p], total, degree_disc, degree=p)
        disc.extend(degree_disc)
    report = VerificationReport(
        str(G),
        "graded",
        "pass" if not disc else "fail",
        disc,
        config=_config(budget_elements, budget_flats),
    )
    return _finish(report, started)


def verify_shape(
    G: GroupDescriptor,
    shape: Shape,
    budget_elements=DEFAULT_ELEMENT_BUDGET,
    budget_flats=DEFAULT_FLAT_BUDGET,
    lattice: Lattice | None = None,
) -> VerificationReport:
    """The per-shape refinement: the shape's orbit summand of the
    cohomology character against its cuspidal classes."""
    started = time.perf_counter()
    conjugacy_classes(G, budget_elements)
    lattice = lattice or get_lattice(G, budget_flats)
    graded = shape_os_character(lattice, shape)
    expected = zero_function(G)
    for piece in graded:
        expected = expected + piece
    specs = [
        chi_char(G, label, tag) for label, tag in cuspidal_labels(G, shape)
    ]
    total = _sum_inductions(G, specs, budget_elements)
    disc = _discrepancies(G, expected, total)
    _triage(G, expected, total, disc)
    report = VerificationReport(
        str(G),
        f"shape {shape}",
        "pass" if not disc else "fail",
        disc,
        config=_config(budget_elements, budget_flats),
    )
    return _finish(report, started)


def verify_all_shapes(G, **kwargs):
    lattice = kwargs.pop("lattice", None) or get_lattice(
        G, kwargs.get("budget_flats", DEFAULT_FLAT_BUDGET)
    )
    return [
        verify_shape(G, shape, lattice=lattice, **kwargs) for shape in shapes(G)
    ]


def poincare_table(
    G: GroupDescriptor,
    budget_elements=DEFAULT_ELEMENT_BUDGET,
    budget_flats=DEFAULT_FLAT_BUDGET,
    lattice: Lattice | None = None,
) -> VerificationReport:
    """P_w(t) for every class in canonical order, ascending coefficients."""
    started = time.perf_counter()
    classes = conjugacy_classes(G, budget_elements)
    lattice = lattice or get_lattice(G, budget_flats)
    table = [
        [str(cls), list(lattice.poincare_polynomial(cls.rep))] for cls in classes
    ]
    report = VerificationReport(
        str(G),
        "poincare",
        "pass",
        [],
        config=_config(budget_elements, budget_flats),
        table=table,
    )
    return _finish(report, started)


def format_poincare_table(report: VerificationReport) -> str:
    lines = []
    for label, coeffs in report.table:
        lines.append(f"{label}: " + " ".join(str(c) for c in coeffs))
    return "\n".join(lines)
