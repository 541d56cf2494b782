"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 runs the
rank-7 identities by default (they take seconds here); the optional
rank-8, 10 and 12 runs are enabled with COXCHAR_STRETCH=1.
"""

import math
import random

from conftest import stretch_enabled
from coxchar.characters import phi_for_class
from coxchar.classfunctions import induce_from_centralizer
from coxchar.groups import GroupDescriptor, centralizer_order, conjugacy_classes
from coxchar.lattice import get_lattice
from coxchar.partitions import signed_partitions
from coxchar.verify import (
    verify_all_shapes,
    verify_graded,
    verify_os,
    verify_regular,
)
from oracles import (
    centralizer_elements,
    class_of,
    evaluate,
    evaluate_summaries,
    flat_codim,
    group_elements,
    induce_direct,
    phi_B,
    psi,
    reflection_exponents,
    root_mul,
    signed_cycle_type,
    w_mu,
)
from signedperm import SignedPermutation
from test_lattice import (
    brute_point_count,
    flat_moebius,
    poly_product,
    stable_subposet,
    whitney_point_count,
)


def _report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


REGULAR_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 6)]
    + [GroupDescriptor("B", r) for r in range(2, 7)]
    + [GroupDescriptor("D", r) for r in range(4, 7)]
)


def test_criterion_1_regular_identity():
    """Regular character = sum of induced centralizer characters,
    for A_1..A_5, B_2..B_6, D_4..D_6, exactly."""
    failures = []
    for G in REGULAR_GROUPS:
        report = verify_regular(G)
        if report.status != "pass":
            failures.append((str(G), report.discrepancies[:2]))
    _report(1, not failures, f"{len(REGULAR_GROUPS)} groups")


OS_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 5)]
    + [GroupDescriptor("B", r) for r in range(2, 6)]
    + [GroupDescriptor("D", 4), GroupDescriptor("D", 5)]
)


def test_criterion_2_os_and_graded_identities():
    """Total and graded arrangement-cohomology identities,
    A_1..A_4, B_2..B_5, D_4, D_5, exactly."""
    failures = []
    for G in OS_GROUPS:
        for check in (verify_os, verify_graded):
            report = check(G)
            if report.status != "pass":
                failures.append((str(G), report.check))
    _report(2, not failures, f"{len(OS_GROUPS)} groups x 2 checks")


def test_criterion_3_per_shape_identities():
    """Every shape of B_4, B_5, D_4, D_5 satisfies the per-shape identity."""
    failures = []
    count = 0
    for G in [
        GroupDescriptor("B", 4),
        GroupDescriptor("B", 5),
        GroupDescriptor("D", 4),
        GroupDescriptor("D", 5),
    ]:
        for report in verify_all_shapes(G):
            count += 1
            if report.status != "pass":
                failures.append((str(G), report.check, report.discrepancies[:1]))
    _report(3, not failures, f"{count} shapes")


POINCARE_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 7)]
    + [GroupDescriptor("B", r) for r in range(1, 7)]
    + [GroupDescriptor("D", r) for r in range(4, 7)]
)


def test_criterion_4_poincare_identities():
    """P_1(t) = prod (1 + m_i t) for every rank <= 6, cross-checked by
    finite-field point counts of the arrangement complement."""
    failures = []
    for G in POINCARE_GROUPS:
        lattice = get_lattice(G, budget=10_000)
        identity = class_of(G, SignedPermutation.identity(G.degree))
        if lattice.poincare_polynomial(identity) != poly_product(
            reflection_exponents(G), G.rank
        ):
            failures.append((str(G), "product formula"))
        primes = (5, 7) if G.degree >= 6 else (5, 7, 11)
        for q in primes:
            if whitney_point_count(lattice, q) != brute_point_count(G, q):
                failures.append((str(G), f"point count mod {q}"))
    _report(4, not failures, f"{len(POINCARE_GROUPS)} groups")


def test_criterion_5_b2_moebius_hand_values():
    """The frozen B_2 Moebius values: full lattice -1/-1/-1/-1/3,
    flip subposet -1/-1/1."""
    lattice = get_lattice(GroupDescriptor("B", 2))
    identity = SignedPermutation.identity(2)
    full = flat_moebius(lattice, stable_subposet(lattice, identity))
    codims = [flat_codim(point) for point in lattice.flats]
    lines = sorted(full[k] for k, c in enumerate(codims) if c == 1)
    origin = [full[k] for k, c in enumerate(codims) if c == 2]
    ok = lines == [-1, -1, -1, -1] and origin == [3]
    sub = stable_subposet(lattice, SignedPermutation.flip(2))
    mu = flat_moebius(lattice, sub)
    sub_lines = sorted(mu[k] for k in sub if codims[k] == 1)
    sub_origin = [mu[k] for k in sub if codims[k] == 2]
    ok = ok and sub_lines == [-1, -1] and sub_origin == [1]
    _report(5, ok)


def test_criterion_6_homomorphism_oracle():
    """phi_B and psi evaluate multiplicatively: exhaustively on every
    centralizer for n <= 4, on 10^4 random pairs for n = 5, 6."""
    failures = 0
    for n in range(1, 5):
        for mu in signed_partitions(n):
            specs = [phi_B(mu)] + ([psi(mu)] if len(mu.neg) % 2 == 0 else [])
            table: dict = {spec.name: {} for spec in specs}
            elements = []
            for images, neg_sum, pos_sum in centralizer_elements(n, mu):
                elements.append(SignedPermutation(images))
                for spec in specs:
                    table[spec.name][images] = evaluate_summaries(
                        spec, neg_sum, pos_sum
                    )
            for spec in specs:
                values = table[spec.name]
                for g in elements:
                    row = {}
                    for h in elements:
                        gh = g.compose(h)
                        if values[gh.images] != root_mul(
                            values[g.images], values[h.images]
                        ):
                            failures += 1
    rng = random.Random(20260811)
    for n in (5, 6):
        mus = list(signed_partitions(n))
        for _ in range(100):
            mu = rng.choice(mus)
            elements = [
                SignedPermutation(images)
                for images, *_ in centralizer_elements(n, mu)
            ]
            specs = [phi_B(mu)] + ([psi(mu)] if len(mu.neg) % 2 == 0 else [])
            for _ in range(100):
                g, h = rng.choice(elements), rng.choice(elements)
                for spec in specs:
                    if evaluate(spec, g.compose(h)) != root_mul(
                        evaluate(spec, g), evaluate(spec, h)
                    ):
                        failures += 1
    _report(6, failures == 0, "exhaustive n<=4 plus 2x10^4 random pairs")


ORACLE_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 6)]
    + [GroupDescriptor("B", r) for r in range(1, 6)]
    + [GroupDescriptor("D", 4), GroupDescriptor("D", 5)]
)


def test_criterion_7_induction_oracle():
    """Fusion induction equals the direct |G|-scan for every class of
    every group of order <= 5000."""
    failures = []
    for G in ORACLE_GROUPS:
        assert G.order <= 5000
        for cls in conjugacy_classes(G):
            chi = phi_for_class(G, cls.label, cls.tag)
            if induce_from_centralizer(G, chi) != induce_direct(G, chi):
                failures.append((str(G), str(cls)))
    _report(7, not failures, f"{len(ORACLE_GROUPS)} groups")


def test_criterion_8_centralizer_orders():
    """Product-formula centralizer orders: class equation for n <= 8,
    enumerated cross-check for n <= 5."""
    ok = True
    for n in range(1, 9):
        order = 2**n * math.factorial(n)
        total = sum(order // centralizer_order(mu) for mu in signed_partitions(n))
        ok = ok and total == order
    for n in range(1, 6):
        G = GroupDescriptor("B", n)
        counts: dict = {}
        for g in group_elements(G):
            mu = signed_cycle_type(g)
            counts[mu] = counts.get(mu, 0) + 1
        for mu in signed_partitions(n):
            expected = G.order // centralizer_order(mu)
            ok = ok and counts.get(mu) == expected
        centralizer = sum(
            1
            for g in group_elements(G)
            if g.compose(w_mu(n, signed_partitions(n)[1]))
            == w_mu(n, signed_partitions(n)[1]).compose(g)
        )
        ok = ok and centralizer == centralizer_order(signed_partitions(n)[1])
    _report(8, ok)


def test_criterion_9_stretch_rank_7_and_8():
    """Rank 7 regular identities; rank 8, 10 and 12 when COXCHAR_STRETCH=1
    (the headline classical instances, and beyond)."""
    ok = True
    for G in [GroupDescriptor("B", 7), GroupDescriptor("D", 7)]:
        ok = ok and verify_regular(G).status == "pass"
    detail = "B7, D7"
    if stretch_enabled():
        for rank in (8, 10, 12):
            for family in "BD":
                G = GroupDescriptor(family, rank)
                ok = ok and verify_regular(G).status == "pass"
        detail = "B7, D7, B8, D8, B10, D10, B12, D12"
    _report(9, ok, detail)
