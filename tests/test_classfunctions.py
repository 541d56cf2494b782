import sys
from fractions import Fraction

import pytest

from coxchar.centralizers import centralizer_elements, conjugate_by_first_flip
from coxchar.characters import alpha_char, chi_char, phi_for_class, spec_product
from coxchar.classfunctions import (
    ClassFunction,
    class_function_of_spec,
    induce_direct,
    induce_from_centralizer,
    inner_product,
    regular_character,
    sign_class_function,
    trivial_character,
    zero_function,
)
from coxchar.cyclotomic import Cyc
from coxchar.groups import (
    GroupDescriptor,
    class_index,
    class_key,
    conjugacy_classes,
    reflection_length,
)
from coxchar.partitions import SignedPartition
from coxchar.signedperm import SignedPermutation

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
    assert [v.as_rational() for v in regular_character(GroupDescriptor("B", 2)).values] == [
        8, 0, 0, 0, 0,
    ]
    assert [v.as_rational() for v in regular_character(GroupDescriptor("A", 2)).values] == [
        6, 0, 0,
    ]


def test_algebra_ops():
    G = GroupDescriptor("B", 2)
    rho = regular_character(G)
    eps = sign_class_function(G)
    assert (eps * eps * rho).equals(rho)
    assert (rho - rho).equals(zero_function(G))
    perturbed = ClassFunction(
        G, rho.values[:-1] + (rho.values[-1] + Cyc.one(),)
    )
    assert not rho.equals(perturbed)
    assert len(rho.discrepancies(perturbed)) == 1
    with pytest.raises(ValueError):
        rho + regular_character(GroupDescriptor("B", 3))


def test_inner_products():
    G = GroupDescriptor("B", 2)
    rho = regular_character(G)
    triv = trivial_character(G)
    assert inner_product(rho, triv).as_rational() == 1
    assert inner_product(rho, rho).as_rational() == G.order
    assert inner_product(triv, triv).as_rational() == 1
    assert inner_product(triv, sign_class_function(G)).as_rational() == 0


def test_induction_from_whole_group_is_identity_map():
    G = GroupDescriptor("B", 3)
    identity_label = SignedPartition((), (1, 1, 1))
    chi = phi_for_class(G, identity_label)
    assert induce_from_centralizer(G, chi).equals(trivial_character(G))


def test_induced_degree_is_index():
    for G in [GroupDescriptor("B", 3), GroupDescriptor("D", 4), GroupDescriptor("A", 3)]:
        identity_key = conjugacy_classes(G)[0].key
        for cls in conjugacy_classes(G):
            chi = phi_for_class(G, cls.label, cls.tag)
            ind = induce_from_centralizer(G, chi)
            k = class_index(G)[identity_key]
            assert ind[k].as_rational() == G.order // cls.centralizer_order


def test_b2_hand_example():
    """Negative 2-cycle in B_2: cyclic centralizer of order 4, degree 2,
    and the two reflection-length-2 classes give total degree 3."""
    G = GroupDescriptor("B", 2)
    mu = SignedPartition((2,), ())
    cls = conjugacy_classes(G)[class_index(G)[(mu, None)]]
    assert cls.centralizer_order == 4
    w = cls.rep
    assert w.order() == 4
    ind = induce_from_centralizer(G, phi_for_class(G, mu))
    assert ind[class_index(G)[(SignedPartition((), (1, 1)), None)]].as_rational() == 2
    total = 0
    for c in conjugacy_classes(G):
        if reflection_length(G, c.rep) == 2:
            ind_c = induce_from_centralizer(G, phi_for_class(G, c.label, c.tag))
            total += ind_c[0].as_rational()
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
        assert fused.equals(direct), f"{G} class {cls}"


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
        value = chi.evaluate_summaries(neg_summary, pos_summary)
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
        values.append(Cyc({r: scale * c for r, c in bucket.items()}))
    return ClassFunction(G, tuple(values))


def _induction_specs(G, cls):
    phi = phi_for_class(G, cls.label, cls.tag)
    return {
        "phi": phi,
        "alpha.phi": spec_product(alpha_char(G, cls.label, cls.tag), phi),
        "chi": chi_char(G, cls.label, cls.tag),
    }


DIFFERENTIAL_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 7)]
    + [GroupDescriptor("B", r) for r in range(2, 7)]
    + [GroupDescriptor("D", r) for r in range(4, 7)]
)


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=str)
def test_tallies_match_streaming(G):
    """Tally induction equals element streaming for every class (both tags
    of the split D classes) and the phi, alpha.phi and chi specs."""
    for cls in conjugacy_classes(G):
        for name, spec in _induction_specs(G, cls).items():
            tallied = induce_from_centralizer(G, spec)
            assert tallied.equals(induce_by_streaming(G, spec)), f"{G} {cls} {name}"


@pytest.mark.parametrize(
    "G", [GroupDescriptor("B", 7), GroupDescriptor("D", 7)], ids=str
)
def test_tallies_match_streaming_rank_7_phi(G):
    for cls in conjugacy_classes(G, None):
        spec = phi_for_class(G, cls.label, cls.tag)
        tallied = induce_from_centralizer(G, spec)
        assert tallied.equals(induce_by_streaming(G, spec)), f"{G} {cls}"


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
    from coxchar.groups import sign_character

    for cls in conjugacy_classes(G):
        chi = phi_for_class(G, cls.label, cls.tag)
        ind = induce_from_centralizer(G, chi)
        for theta, theta_fn in [
            (trivial_character(G), lambda g: 1),
            (sign_class_function(G), lambda g: sign_character(G, g)),
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
                value = chi.evaluate_summaries(neg_sum, pos_sum)
                total = total + Cyc.from_root(value).scale(theta_fn(g))
                count += 1
            rhs = total.scale(Fraction(1, count))
            assert (lhs - rhs).is_zero()


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
                q = v.as_rational()
                assert q is not None and q.denominator == 1, f"{G} {cls}: {v}"


def test_induced_norms_are_positive_integers():
    G = GroupDescriptor("B", 3)
    for cls in conjugacy_classes(G):
        ind = induce_from_centralizer(G, phi_for_class(G, cls.label, cls.tag))
        norm = inner_product(ind, ind).as_rational()
        assert norm is not None and norm.denominator == 1 and norm > 0


def test_b2_os_trivial_multiplicity():
    """<omega, triv> = 4 at B_2 (= the number of flat orbits), frozen and
    cross-checked by summing P_w(1) over all eight group elements."""
    from coxchar.groups import group_elements
    from coxchar.lattice import get_lattice, graded_os_character
    from coxchar.shapes import shapes

    G = GroupDescriptor("B", 2)
    lattice = get_lattice(G)
    total = zero_function(G)
    for piece in graded_os_character(lattice):
        total = total + piece
    value = inner_product(total, trivial_character(G)).as_rational()
    assert value == 4 == len(shapes(G))
    brute = sum(
        sum(lattice.poincare_polynomial(w)) for w in group_elements(G)
    )
    assert Fraction(brute, G.order) == value


def test_induce_group_mismatch():
    G = GroupDescriptor("B", 3)
    from coxchar.characters import phi_B

    with pytest.raises(ValueError):
        induce_from_centralizer(G, phi_B(SignedPartition((), (2, 2))))
