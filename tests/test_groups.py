import random

import pytest

from conftest import mulclose
from coxchar.classfunctions import regular_character
from coxchar.groups import (
    BudgetError,
    GroupDescriptor,
    class_count,
    class_index,
    conjugacy_classes,
    reflection_length,
    sign_character,
)
from coxchar.lattice import _negated, hyperplane_set
from coxchar.partitions import SignedPartition
from oracles import (
    class_counts_by_parts,
    class_key,
    class_rep,
    coxeter_generators,
    d_split_side,
    element_reflection_length,
    element_sign,
    fixed_space,
    fixed_space_ambient,
    group_elements,
    hyperplane_action,
    signed_cycle_type,
)
from signedperm import SignedPermutation


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor("E", 7)
    with pytest.raises(ValueError):
        GroupDescriptor("D", 3)
    assert GroupDescriptor("A", 2).degree == 3
    assert GroupDescriptor("A", 2).order == 6
    assert GroupDescriptor("B", 3).order == 48
    assert GroupDescriptor("D", 4).order == 192


def test_coxeter_generators_generate():
    for G in [GroupDescriptor("A", 3), GroupDescriptor("B", 3), GroupDescriptor("D", 4)]:
        assert len(mulclose(list(coxeter_generators(G)))) == G.order


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 2, 3), ("B", 2, 5), ("B", 3, 10), ("D", 4, 13), ("D", 5, 18), ("D", 6, 37)],
)
def test_class_counts(family, rank, count):
    assert len(conjugacy_classes(GroupDescriptor(family, rank))) == count


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("D", 4), ("D", 5)],
)
def test_class_partition(family, rank):
    G = GroupDescriptor(family, rank)
    classes = conjugacy_classes(G)
    assert sum(c.size for c in classes) == G.order
    for c in classes:
        assert c._fields == ("label", "tag", "size", "centralizer_order")
        assert c.size * c.centralizer_order == G.order
        assert class_key(class_rep(G, c.label, c.tag), G.family) == c.key


def test_signed_cycle_type_examples():
    assert signed_cycle_type(SignedPermutation.identity(3)) == SignedPartition(
        (), (1, 1, 1)
    )
    w = SignedPermutation((-1, 3, -2))
    assert signed_cycle_type(w) == SignedPartition((1, 2), ())
    minus = SignedPermutation.minus_identity(2)
    assert signed_cycle_type(minus) == SignedPartition((1, 1), ())


def test_type_is_conjugation_invariant():
    rng = random.Random(7)
    G = GroupDescriptor("B", 4)
    elements = list(group_elements(G))
    for _ in range(200):
        w, x = rng.choice(elements), rng.choice(elements)
        assert signed_cycle_type(w.conjugate(x)) == signed_cycle_type(w)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 4)],
)
def test_classes_against_brute_force_orbits(family, rank):
    """Class lists match conjugation orbits exactly (groups of order <= 5000)."""
    G = GroupDescriptor(family, rank)
    elements = list(group_elements(G))
    seen: dict[tuple, int] = {}
    for w in elements:
        key = class_key(w, G.family)
        seen[key] = seen.get(key, 0) + 1
    classes = conjugacy_classes(G)
    assert set(seen) == {c.key for c in classes}
    for c in classes:
        assert seen[c.key] == c.size
    # and distinct keys really are distinct orbits
    for c in classes:
        rep = class_rep(G, c.label, c.tag)
        orbit = {rep.conjugate(x).images for x in elements}
        assert len(orbit) == c.size
        assert all(class_key(SignedPermutation(y), G.family) == c.key for y in orbit)


def test_d_split_side():
    n = 4
    lam = SignedPartition((), (2, 2))
    w_plus = class_rep(GroupDescriptor("D", 4), lam, "+")
    w_minus = class_rep(GroupDescriptor("D", 4), lam, "-")
    assert d_split_side(w_plus) == "+"
    assert d_split_side(w_minus) == "-"
    # conjugating by even elements preserves the side, odd ones swap it
    G = GroupDescriptor("D", 4)
    four = SignedPartition((), (4,))
    w4 = class_rep(G, four, "+")
    for x in group_elements(GroupDescriptor("B", 4)):
        side = d_split_side(w4.conjugate(x))
        assert side == ("+" if x.is_even_signed() else "-")


def test_d_split_side_rejects():
    with pytest.raises(ValueError):
        d_split_side(SignedPermutation((2, 1, 3)))  # type (2,1,1): no split


def test_reflection_length():
    G = GroupDescriptor("B", 3)
    assert element_reflection_length(G, SignedPermutation.identity(3)) == 0
    assert element_reflection_length(G, SignedPermutation.flip(3)) == 1
    w = SignedPermutation((-1, 3, -2))
    assert element_reflection_length(G, w) == 3
    assert reflection_length(G, signed_cycle_type(w)) == 3
    assert fixed_space_ambient(w).dim == 0
    for cls in conjugacy_classes(G):
        rep = class_rep(G, cls.label, cls.tag)
        assert 0 <= reflection_length(G, cls.label) <= G.rank
        assert reflection_length(G, cls.label) == G.rank - fixed_space(G, rep).dim
        assert (reflection_length(G, cls.label) == 0) == (
            rep == SignedPermutation.identity(3)
        )


def test_fixed_space_type_a():
    G = GroupDescriptor("A", 2)
    s1 = SignedPermutation.transposition(3, 1)
    space = fixed_space(G, s1)
    assert space.dim == 1  # inside the sum-zero plane
    assert element_reflection_length(G, s1) == 1
    assert reflection_length(G, signed_cycle_type(s1)) == 1
    assert fixed_space(G, SignedPermutation.identity(3)).dim == 2


def test_sign_character():
    G = GroupDescriptor("B", 2)
    assert element_sign(G, SignedPermutation.identity(2)) == 1
    assert element_sign(G, SignedPermutation.flip(2)) == -1
    assert element_sign(G, SignedPermutation.minus_identity(2)) == 1
    assert sign_character(G, SignedPartition((), (1, 1))) == 1
    assert sign_character(G, SignedPartition((1,), (1,))) == -1
    assert sign_character(G, SignedPartition((1, 1), ())) == 1
    rng = random.Random(11)
    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        H = GroupDescriptor(family, rank)
        elements = list(group_elements(H))
        for _ in range(1000):
            p, q = rng.choice(elements), rng.choice(elements)
            assert element_sign(H, p.compose(q)) == element_sign(
                H, p
            ) * element_sign(H, q)
            assert element_sign(H, p) == sign_character(H, signed_cycle_type(p))


LABEL_GROUPS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 11)]
)


@pytest.mark.parametrize("family,rank", LABEL_GROUPS)
def test_label_formulas_match_element_oracles(family, rank):
    """Every class datum read off a label agrees with the element the
    label stands for: the sign and the reflection length of the class
    representative, the identity's label, and the class of -w, whose
    split tag in type D swaps when n = 2 mod 4 (D6, D10) and stays
    otherwise (D4, D8)."""
    G = GroupDescriptor(family, rank)
    n = G.degree
    identity = SignedPermutation.identity(n)
    regular = regular_character(G)
    assert regular[class_index(G)[class_key(identity, family)]] == G.order
    assert sum(1 for v in regular.values if v) == 1
    minus = SignedPermutation.minus_identity(n)
    central = family != "A" and not (family == "D" and n % 2)
    for cls in conjugacy_classes(G):
        rep = class_rep(G, cls.label, cls.tag)
        assert reflection_length(G, cls.label) == element_reflection_length(G, rep)
        assert sign_character(G, cls.label) == element_sign(G, rep)
        partner = _negated(G, cls)
        if central:
            assert partner == class_key(rep.compose(minus), family), cls
        else:
            assert partner is None


@pytest.mark.parametrize(
    "family,rank,count", [("B", 2, 4), ("A", 2, 3), ("D", 4, 12), ("B", 3, 9)]
)
def test_hyperplane_counts(family, rank, count):
    assert len(hyperplane_set(GroupDescriptor(family, rank))) == count


def test_hyperplane_action_is_action():
    rng = random.Random(3)
    for family, rank in [("B", 3), ("D", 4), ("A", 3)]:
        G = GroupDescriptor(family, rank)
        elements = list(group_elements(G))
        for _ in range(100):
            p, q = rng.choice(elements), rng.choice(elements)
            ap = hyperplane_action(G, p)
            aq = hyperplane_action(G, q)
            apq = hyperplane_action(G, p.compose(q))
            composed = tuple(ap[aq[h]] for h in range(len(ap)))
            assert composed == apq


def test_budget_errors():
    with pytest.raises(BudgetError):
        list(group_elements(GroupDescriptor("B", 8), budget=1000))


def test_class_count_matches_the_class_list():
    """class_count, Euler's pentagonal recurrence that lists nothing, is the
    length of the class list on A1-A25, B1-B14 and D4-D14 (both sides of
    each D split pair counted)."""
    groups = (
        [GroupDescriptor("A", r) for r in range(1, 26)]
        + [GroupDescriptor("B", r) for r in range(1, 15)]
        + [GroupDescriptor("D", r) for r in range(4, 15)]
    )
    for G in groups:
        assert class_count(G) == len(conjugacy_classes(G)), G


@pytest.mark.parametrize("family", "ABD")
def test_class_count_matches_the_recurrence_over_part_sizes(family):
    """The pentagonal recurrence gives the counts of the O(n^2) recurrence
    over part sizes (oracles.class_counts_by_parts) at every degree up to
    200 and at every 100th up to 1500, the degrees the class limit refuses
    among them."""
    counts = class_counts_by_parts(family, 1500)
    first = {"A": 2, "B": 1, "D": 4}[family]  # the smallest degree
    for n in [*range(first, 200), *range(200, 1501, 100)]:
        G = GroupDescriptor(family, n - 1 if family == "A" else n)
        assert class_count(G) == counts[n], G
