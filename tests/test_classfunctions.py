import sys
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest

from conftest import stretch_enabled
from coxchar import centralizers
from coxchar.centralizers import code_index, cycle_code, side_unit
from coxchar.characters import (
    alpha_char,
    chi_char,
    epsilon_char,
    phi_for_class,
    spec_product,
)
from coxchar.classfunctions import (
    ClassFunction,
    induce_from_centralizer,
    inner_product,
    regular_character,
    sign_class_function,
    trivial_character,
    zero_function,
)
from coxchar.cli import main
from coxchar.groups import (
    GroupDescriptor,
    class_index,
    conjugacy_classes,
    reflection_length,
)
from coxchar.partitions import SignedPartition, signed_partitions
from oracles import (
    Cyc,
    centralizer_elements,
    class_function_of_spec,
    class_key,
    class_of,
    class_rep,
    conjugate_by_first_flip,
    element_sign,
    evaluate_summaries,
    group_elements,
    induce_by_root_tallies,
    induce_direct,
)
from signedperm import SignedPermutation

SMALL_GROUPS = [
    GroupDescriptor("A", 1),
    GroupDescriptor("A", 2),
    GroupDescriptor("A", 3),
    GroupDescriptor("A", 4),
    GroupDescriptor("A", 5),
    GroupDescriptor("B", 1),
    GroupDescriptor("B", 2),
    GroupDescriptor("B", 3),
    GroupDescriptor("B", 4),
    GroupDescriptor("B", 5),
    GroupDescriptor("D", 4),
    GroupDescriptor("D", 5),
]


def test_regular_character_values():
    assert list(regular_character(GroupDescriptor("B", 2)).values) == [8, 0, 0, 0, 0]
    assert list(regular_character(GroupDescriptor("A", 2)).values) == [6, 0, 0]


def test_algebra_ops():
    G = GroupDescriptor("B", 2)
    rho = regular_character(G)
    eps = sign_class_function(G)
    assert all(e * e == 1 for e in eps.values)
    assert rho - rho == zero_function(G)
    perturbed = ClassFunction(G, rho.values[:-1] + (rho.values[-1] + 1,))
    assert rho != perturbed
    assert len(rho.discrepancies(perturbed)) == 1
    with pytest.raises(ValueError):
        rho + regular_character(GroupDescriptor("B", 3))


def test_inner_products():
    G = GroupDescriptor("B", 2)
    rho = regular_character(G)
    triv = trivial_character(G)
    assert inner_product(rho, triv) == 1
    assert inner_product(rho, rho) == G.order
    assert inner_product(triv, triv) == 1
    assert inner_product(triv, sign_class_function(G)) == 0


def test_induction_from_whole_group_is_identity_map():
    G = GroupDescriptor("B", 3)
    identity_label = SignedPartition((), (1, 1, 1))
    chi = phi_for_class(G, identity_label)
    assert induce_from_centralizer(G, chi) == trivial_character(G)


def test_induced_degree_is_index():
    for G in [GroupDescriptor("B", 3), GroupDescriptor("D", 4), GroupDescriptor("A", 3)]:
        identity_key = conjugacy_classes(G)[0].key
        for cls in conjugacy_classes(G):
            chi = phi_for_class(G, cls.label, cls.tag)
            ind = induce_from_centralizer(G, chi)
            k = class_index(G)[identity_key]
            assert ind[k] == G.order // cls.centralizer_order


def test_b2_hand_example():
    """Negative 2-cycle in B_2: cyclic centralizer of order 4, degree 2,
    and the two reflection-length-2 classes give total degree 3."""
    G = GroupDescriptor("B", 2)
    mu = SignedPartition((2,), ())
    cls = conjugacy_classes(G)[class_index(G)[(mu, None)]]
    assert cls.centralizer_order == 4
    w = class_rep(G, mu)
    assert w.order() == 4
    ind = induce_from_centralizer(G, phi_for_class(G, mu))
    assert ind[class_index(G)[(SignedPartition((), (1, 1)), None)]] == 2
    total = 0
    for c in conjugacy_classes(G):
        if reflection_length(G, c.label) == 2:
            ind_c = induce_from_centralizer(G, phi_for_class(G, c.label, c.tag))
            total += ind_c[0]
    assert total == 3


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=str)
def test_fusion_induction_matches_direct_scan(G):
    """Acceptance oracle: fusion induction equals the |G|-scan definition
    for every class of every group of order <= 5000."""
    assert G.order <= 5000
    for cls in conjugacy_classes(G):
        chi = phi_for_class(G, cls.label, cls.tag)
        fused = induce_from_centralizer(G, chi)
        direct = induce_direct(G, chi)
        assert fused == direct, f"{G} class {cls}"


def induce_by_streaming(G, chi):
    """Induction by streaming every element of the centralizer and
    bucketing its character value under the class it fuses into."""
    classes = conjugacy_classes(G, None)
    base = classes[class_index(G)[(chi.label, chi.tag)]]
    order_h = base.centralizer_order
    if order_h == G.order:
        return class_function_of_spec(G, chi)
    buckets = {}
    count = 0
    for images, neg_summary, pos_summary in centralizer_elements(
        G.degree,
        chi.label,
        flips=G.family != "A",
        parity=0 if G.family == "D" else None,
    ):
        count += 1
        value = evaluate_summaries(chi, neg_summary, pos_summary)
        if chi.tag == "-":
            images = conjugate_by_first_flip(images)
        key = class_key(SignedPermutation(images), G.family)
        bucket = buckets.setdefault(key, {})
        bucket[value] = bucket.get(value, 0) + 1
    assert count == order_h
    values = []
    for cls in classes:
        bucket = buckets.get(cls.key, {})
        scale = Fraction(cls.centralizer_order, order_h)
        value = Cyc({r: scale * c for r, c in bucket.items()}).as_rational()
        assert value is not None and value.denominator == 1, f"{G} {cls}: {value}"
        values.append(value.numerator)
    return ClassFunction(G, tuple(values))


def _induction_specs(G, cls):
    phi = phi_for_class(G, cls.label, cls.tag)
    return {
        "phi": phi,
        "alpha.phi": spec_product(alpha_char(G, cls.label, cls.tag), phi),
        "chi": chi_char(G, cls.label, cls.tag),
    }


DIFFERENTIAL_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 8)]
    + [GroupDescriptor("B", r) for r in range(2, 8)]
    + [GroupDescriptor("D", r) for r in range(4, 8)]
)


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=str)
def test_tallies_match_streaming(G):
    """Tally induction equals element streaming for every class (both tags
    of the split D classes) and the phi, alpha.phi and chi specs, and each
    value is a Python int."""
    for cls in conjugacy_classes(G):
        for name, spec in _induction_specs(G, cls).items():
            tallied = induce_from_centralizer(G, spec)
            assert all(type(v) is int for v in tallied.values), f"{G} {cls} {name}"
            assert tallied == induce_by_streaming(G, spec), f"{G} {cls} {name}"


OS_ROUTE_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 9)]
    + [GroupDescriptor("B", r) for r in range(1, 9)]
    + [GroupDescriptor("D", r) for r in range(4, 9)]
)


def test_os_route_through_alpha_phi_equals_chi():
    """The os check induces chi_w; its former route, epsilon times
    Ind(alpha_w phi_w), is kept here as the oracle: epsilon is restricted
    from W, so the two agree on every class (751 classes in all)."""
    count = 0
    for G in OS_ROUTE_GROUPS:
        eps = sign_class_function(G)
        for cls in conjugacy_classes(G):
            alpha_phi = spec_product(
                alpha_char(G, cls.label, cls.tag), phi_for_class(G, cls.label, cls.tag)
            )
            old = induce_from_centralizer(G, alpha_phi).values
            old = ClassFunction(G, tuple(a * e for a, e in zip(old, eps.values)))
            new = induce_from_centralizer(G, chi_char(G, cls.label, cls.tag))
            assert new == old, f"{G} {cls}"
            count += 1
    assert count == 751


def _stretch(family, rank):
    return pytest.param(
        GroupDescriptor(family, rank),
        marks=pytest.mark.skipif(
            not stretch_enabled(), reason="rank 9 and 10 need COXCHAR_STRETCH=1"
        ),
    )


@pytest.mark.parametrize(
    "G",
    [GroupDescriptor("A", 8), GroupDescriptor("B", 8), GroupDescriptor("D", 8),
     _stretch("B", 9), _stretch("D", 9), _stretch("A", 10), _stretch("D", 10)],
    ids=str,
)
def test_integer_keys_match_root_keyed_tallies(G):
    """Induction on (cycle code, phase) keys equals the root-keyed kernel
    it replaced, for every class and the phi, alpha.phi, chi and epsilon
    specs, at ranks element streaming does not reach."""
    for cls in conjugacy_classes(G):
        specs = _induction_specs(G, cls)
        specs["epsilon"] = epsilon_char(G, cls.label, cls.tag)
        for name, spec in specs.items():
            got = induce_from_centralizer(G, spec)
            assert got == induce_by_root_tallies(G, spec), f"{G} {cls} {name}"


def _bases(n):
    """(signed length, base) of each digit of a cycle-type code of W_n,
    lowest first: positive lengths 1..n, then negative 1..n, the digit of
    +-L in base n // L + 1."""
    return [(L, n // abs(L) + 1) for L in (*range(1, n + 1), *range(-1, -n - 1, -1))]


def _decode(n, code):
    """The signed partition read back off a cycle-type code, digit by digit."""
    counts = {}
    for L, base in _bases(n):
        code, counts[L] = divmod(code, base)
    assert code == 0
    neg = tuple(L for L in range(1, n + 1) for _ in range(counts[-L]))
    pos = tuple(L for L in range(n, 0, -1) for _ in range(counts[L]))
    return SignedPartition(neg, pos)


CODE_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 16)]
    + [GroupDescriptor("B", r) for r in range(1, 15)]
    + [GroupDescriptor("D", r) for r in range(4, 15)]
)


def test_cycle_codes_name_their_classes():
    """Every class of A1-A15, B1-B14 and D4-D14 has its own code (the two
    sides of a split class share one), the code reads back to the class's
    label, and code_index leads from code and side digit (at side_unit,
    right above the cycle digits) to the class itself: side 0 in types A
    and B, every side count 0..n // 2 + 1 in type D, of the tag's parity
    where the class splits.  No code of D_n with an odd number of negative
    cycles names a class, whatever its side count."""
    for G in CODE_GROUPS:
        n = G.degree
        labels = {}
        index = code_index(G)
        unit = side_unit(n)
        assert unit == prod(base for _, base in _bases(n))
        all_sides = range(n // 2 + 2) if G.family == "D" else (0,)
        for k, cls in enumerate(conjugacy_classes(G)):
            code = cycle_code(cls.label)
            assert labels.setdefault(code, cls.label) == cls.label, f"{G} {cls}"
            assert _decode(n, code) == cls.label, f"{G} {cls}"
            parity = None if cls.tag is None else int(cls.tag == "-")
            for side in all_sides:
                if parity is None or side % 2 == parity:
                    assert conjugacy_classes(G)[index[code + side * unit]].key == cls.key
                else:
                    assert index.get(code + side * unit) != k
        assert len(index) == len(all_sides) * len(labels)
        if G.family == "D":
            for mu in signed_partitions(n):
                if len(mu.neg) % 2:
                    for side in range(n + 2):
                        key = cycle_code(mu) + side * unit
                        assert key not in index, f"{G} {mu} {side}"
    # full digits: n positive and n negative 1-cycles, and n // L cycles of
    # each length L, the most a digit counts, read back without a carry
    for n in (1, 7, 14):
        identity = SignedPartition((), (1,) * n)
        minus = SignedPartition((1,) * n, ())
        assert cycle_code(identity) == n
        assert cycle_code(minus) == n * prod(n // L + 1 for L in range(1, n + 1))
        assert _decode(n, cycle_code(minus)) == minus
        for L in range(1, n + 1):
            rest = (1,) * (n % L)
            for mu in (
                SignedPartition(rest, (L,) * (n // L)),
                SignedPartition((L,) * (n // L), rest),
            ):
                assert _decode(n, cycle_code(mu)) == mu, f"{n} {mu}"
                assert all(count <= n // abs(key) for key, count in mu.families)


def _code(n, mu):
    """The code of mu's cycles placed among the n coordinates of W_n."""
    return sum(count * centralizers._unit(n, key) for key, count in mu.families)


def test_codes_of_disjoint_labels_add():
    """For labels mu of k and nu of n - k, placed side by side on the n
    coordinates of W_n, the code of mu u nu is the code of mu plus the
    code of nu: no digit overflows into the next, as convolving tallies
    of disjoint families needs."""
    for n in range(1, 9):
        for k in range(n + 1):
            for mu in signed_partitions(k):
                for nu in signed_partitions(n - k):
                    union = SignedPartition(
                        tuple(sorted(mu.neg + nu.neg)),
                        tuple(sorted(mu.pos + nu.pos, reverse=True)),
                    )
                    assert _code(n, mu) + _code(n, nu) == cycle_code(union)


CENTRAL_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 11)]
    + [GroupDescriptor("B", r) for r in range(1, 13)]
    + [GroupDescriptor("D", r) for r in range(4, 13)]
)


def test_central_classes_match_direct_evaluation():
    """On a central class (w = 1, and w = -1 where it lies in the group)
    the centralizer is the whole group, and induction by class tallies
    equals the character evaluated at every class representative, for
    phi, alpha.phi, chi and epsilon."""
    inductions = 0
    for G in CENTRAL_GROUPS:
        for cls in conjugacy_classes(G):
            if cls.centralizer_order != G.order:
                continue
            specs = _induction_specs(G, cls)
            specs["epsilon"] = epsilon_char(G, cls.label, cls.tag)
            for name, spec in specs.items():
                direct = class_function_of_spec(G, spec)
                tallied = induce_from_centralizer(G, spec)
                assert tallied == direct, f"{G} {cls.label} {name}"
                inductions += 1
    assert inductions == 196


def test_induction_enumerates_no_element():
    """No centralizer element is streamed, under whatever name it is called."""
    streamed = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is centralizer_elements.__code__:
            streamed.append(frame.f_code.co_name)

    groups = [GroupDescriptor("A", 4), GroupDescriptor("B", 4), GroupDescriptor("D", 4)]
    sys.setprofile(profile)
    try:
        for G in groups:
            for cls in conjugacy_classes(G):
                induce_from_centralizer(G, chi_char(G, cls.label, cls.tag))
    finally:
        sys.setprofile(None)
    assert not streamed


@pytest.mark.parametrize(
    "G",
    [GroupDescriptor("B", 2), GroupDescriptor("B", 3), GroupDescriptor("B", 4),
     GroupDescriptor("D", 4)],
    ids=str,
)
def test_frobenius_reciprocity(G):
    """<Ind chi, theta>_G = <chi, Res theta>_C for theta in {triv, sign}."""
    for cls in conjugacy_classes(G):
        chi = phi_for_class(G, cls.label, cls.tag)
        ind = induce_from_centralizer(G, chi)
        for theta, theta_fn in [
            (trivial_character(G), lambda g: 1),
            (sign_class_function(G), lambda g: element_sign(G, g)),
        ]:
            lhs = inner_product(ind, theta)
            total = Cyc.zero()
            count = 0
            for images, neg_sum, pos_sum in centralizer_elements(
                G.degree,
                cls.label,
                flips=G.family != "A",
                parity=0 if G.family == "D" else None,
            ):
                g = SignedPermutation(images)
                if chi.tag == "-":
                    g = g.conjugate(SignedPermutation.flip(G.degree))
                value = evaluate_summaries(chi, neg_sum, pos_sum)
                total = total + Cyc.from_root(value).scale(theta_fn(g))
                count += 1
            rhs = total.scale(Fraction(1, count))
            assert (Cyc.from_rational(lhs) - rhs).is_zero()


@pytest.mark.parametrize(
    "G",
    [GroupDescriptor("B", 4), GroupDescriptor("B", 5), GroupDescriptor("D", 5),
     GroupDescriptor("A", 5)],
    ids=str,
)
def test_induced_values_are_integers(G):
    """All Ind(phi_w) and Ind(chi_w) values reduce to rational integers."""
    for cls in conjugacy_classes(G):
        for spec in [
            phi_for_class(G, cls.label, cls.tag),
            chi_char(G, cls.label, cls.tag),
        ]:
            ind = induce_from_centralizer(G, spec)
            for v in ind.values:
                assert type(v) is int, f"{G} {cls}: {v!r}"


def test_induced_norms_are_positive_integers():
    G = GroupDescriptor("B", 3)
    for cls in conjugacy_classes(G):
        ind = induce_from_centralizer(G, phi_for_class(G, cls.label, cls.tag))
        norm = inner_product(ind, ind)
        assert norm is not None and norm.denominator == 1 and norm > 0


def test_b2_os_trivial_multiplicity():
    """<omega, triv> = 4 at B_2 (= the number of flat orbits), frozen and
    cross-checked by summing P_w(1) over all eight group elements."""
    from coxchar.lattice import get_lattice, graded_os_character
    from coxchar.shapes import shapes

    G = GroupDescriptor("B", 2)
    lattice = get_lattice(G)
    total = zero_function(G)
    for piece in graded_os_character(lattice):
        total = total + piece
    value = inner_product(total, trivial_character(G))
    assert value == 4 == len(shapes(G))
    brute = sum(
        sum(lattice.poincare_polynomial(class_of(G, w))) for w in group_elements(G)
    )
    assert Fraction(brute, G.order) == value


def test_non_integral_induced_value_is_an_internal_error(monkeypatch, capsys):
    """One more than every value of each family's tally, counts kept: the
    identity base of A2 = S_3 then sums 3 + 1 over the transpositions,
    and 2 * 4 / 6 is no integer, so the per-class division trips; from
    the CLI this is exit 3 and one `internal error: non-integral` line."""
    real = centralizers.centralizer_tallies

    def shifted(mu, family, values):
        return [
            {code: (value + 1, count) for code, (value, count) in tally.items()}
            for tally in real(mu, family, values)
        ]

    monkeypatch.setattr(centralizers, "centralizer_tallies", shifted)
    G = GroupDescriptor("A", 2)
    with pytest.raises(AssertionError, match="non-integral"):
        induce_from_centralizer(G, phi_for_class(G, SignedPartition((), (1, 1, 1))))
    assert main(["--family", "A", "--rank", "2", "--check", "regular"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: non-integral")


@pytest.mark.parametrize(
    "rank, family, lost",
    [
        (4, "B", SignedPartition((1,), (1, 1, 1))),
        (4, "D", SignedPartition((1, 1), (1, 1))),
        (5, "D", SignedPartition((1, 2), (2,))),
    ],
    ids=str,
)
def test_lost_code_is_an_internal_error(monkeypatch, capsys, rank, family, lost):
    """A code that names no class, although its elements lie in the group
    (in type D an even number of negative cycles), loses them: tallied
    falls short of |H| and induction raises; from the CLI this is exit 3,
    one `internal error: tallied` line and nothing on stdout.  Only the
    odd codes of a type-D tally may be dropped."""
    G = GroupDescriptor(family, rank)
    lost_classes = {
        k for k, cls in enumerate(conjugacy_classes(G)) if cls.label == lost
    }
    assert lost_classes and len(lost.neg) % 2 == (family == "B")
    real = centralizers.code_index

    def without_lost(H):
        index = real(H)
        if H != G:
            return index
        return {code: k for code, k in index.items() if k not in lost_classes}

    monkeypatch.setattr(centralizers, "code_index", without_lost)
    identity = SignedPartition((), (1,) * rank)
    with pytest.raises(AssertionError, match="tallied"):
        induce_from_centralizer(G, phi_for_class(G, identity))
    argv = ["--family", family, "--rank", str(rank), "--check", "regular"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: tallied")


def _skew(monkeypatch):
    """Each block cycle's rows times zeta_2L where centralizers reads their
    sums (orbit_sum), with a fresh _family_tally cache for the test, so
    that no skewed tally outlives it."""
    real = centralizers.orbit_sum

    def skewed(bucket, m):
        return real({(e + 1) % m: count for e, count in bucket.items()}, m)

    monkeypatch.setattr(centralizers, "orbit_sum", skewed)
    fresh = lru_cache(maxsize=None)(centralizers._family_tally.__wrapped__)
    monkeypatch.setattr(centralizers, "_family_tally", fresh)


def test_irrational_central_value_is_an_internal_error(monkeypatch, capsys):
    """Every cycle's values times zeta_2L, at a character based at the
    transposition of A1 = S_2, a central base with one family of 2-cycles:
    the central base goes through the class tallies, and the one row of
    the identity's code, 1, reads as zeta_4."""
    G = GroupDescriptor("A", 1)
    transposition = SignedPartition((), (2,))
    _skew(monkeypatch)
    with pytest.raises(AssertionError, match="irrational"):
        induce_from_centralizer(G, phi_for_class(G, transposition))
    assert main(["--family", "A", "--rank", "1", "--check", "regular"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: irrational")


def test_irrational_tallied_value_is_an_internal_error(monkeypatch):
    """Every cycle's values times zeta_2L, at the base +2+1 of B3: the
    2-cycle family's rows of the identity's code, 1, read as zeta_4, and
    the reading of a bucket with a nonzero sum is irrational."""
    _skew(monkeypatch)
    G = GroupDescriptor("B", 3)
    with pytest.raises(AssertionError, match="irrational"):
        induce_from_centralizer(G, phi_for_class(G, SignedPartition((), (2, 1))))


@pytest.mark.parametrize(
    "G", [GroupDescriptor("A", 3), GroupDescriptor("B", 3), GroupDescriptor("D", 4)],
    ids=str,
)
def test_class_function_values_are_ints(G):
    from coxchar.lattice import get_lattice, graded_os_character, shape_os_character
    from coxchar.shapes import shapes

    lattice = get_lattice(G)
    rho = regular_character(G)
    eps = sign_class_function(G)
    built = [
        rho, trivial_character(G), eps, zero_function(G),
        rho + eps, rho - eps,
        class_function_of_spec(G, phi_for_class(G, conjugacy_classes(G)[0].label)),
        *graded_os_character(lattice),
        *(shape_os_character(lattice, shape) for shape in shapes(G)),
    ]
    for f in built:
        assert all(type(v) is int for v in f.values), f
    assert type(inner_product(rho, eps)) is Fraction


def test_induce_group_mismatch():
    G = GroupDescriptor("B", 3)
    from oracles import phi_B

    with pytest.raises(ValueError):
        induce_from_centralizer(G, phi_B(SignedPartition((), (2, 2))))
