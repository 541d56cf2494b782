import random

import pytest

from coxchar.characters import (
    LinearCharacterSpec,
    alpha_char,
    chi_char,
    epsilon_char,
    phi_for_class,
    spec_product,
)
from coxchar.groups import GroupDescriptor, conjugacy_classes
from coxchar.partitions import SignedPartition, signed_partitions
from coxchar.shapes import Shape
from oracles import (
    MINUS_ONE,
    ONE,
    alpha_on_centralizer,
    base_rep,
    centralizer_elements,
    centralizer_generators,
    class_rep,
    coordinates,
    element_sign,
    evaluate,
    evaluate_summaries,
    group_elements,
    phi_B,
    psi,
    root,
    root_mul,
    summary_value,
    _summaries,
)
from signedperm import SignedPermutation


def test_lemma_order_conditions_enforced():
    """A negative 2-cycle has order 4, so every exponent a gives a 4th root
    and is kept mod 4; a positive 2-cycle has order 2, so an odd a (a 4th
    root that is not a square root of 1) is refused."""
    mu = SignedPartition((2,), (2,))
    G = GroupDescriptor("B", 4)
    spec = LinearCharacterSpec(G, mu, None, {-2: (5, 0, 0), 2: (2, 0, 0)})
    assert spec.values == {-2: (1, 0, 0), 2: (2, 0, 0)}
    assert summary_value(spec.values, (-2, 1, 1, 0)) == root(1, 4)  # zeta_4 at c
    assert summary_value(spec.values, (2, 1, 1, 0)) == root(2, 4)  # -1 at d
    with pytest.raises(ValueError, match="2-th root"):
        LinearCharacterSpec(G, mu, None, {-2: (1, 0, 0), 2: (1, 0, 0)})


FAMILIES_B3 = {-1: (1, 1, 0), 2: (2, 0, 1)}  # label -1+2 of B3


@pytest.mark.parametrize(
    "values",
    [
        {},  # no family
        {-1: (1, 1, 0)},  # the positive 2-cycles missing
        {**FAMILIES_B3, 1: (0, 0, 0)},  # a family the label lacks
        {**FAMILIES_B3, 2: (1, 0, 0)},  # odd a on a positive family
        {**FAMILIES_B3, -1: (1, 2, 0)},  # s outside {0, 1}
        {**FAMILIES_B3, 2: (2, 0, -1)},  # r outside {0, 1}
        {**FAMILIES_B3, -1: (1, 1, 1)},  # r on a negative family
        {**FAMILIES_B3, 2: (2, 0)},  # not a triple
    ],
    ids=["empty", "missing", "extra", "odd-a", "s", "r", "negated-neg", "pair"],
)
def test_spec_validation_at_construction(values):
    mu = SignedPartition((1,), (2,))
    G = GroupDescriptor("B", 3)
    LinearCharacterSpec(G, mu, None, FAMILIES_B3)
    with pytest.raises(ValueError):
        LinearCharacterSpec(G, mu, None, values)


@pytest.mark.parametrize(
    "family,rank,label,tag",
    [
        ("D", 4, SignedPartition((), (2, 2)), None),  # a split class needs a tag
        ("D", 4, SignedPartition((), (3, 1)), "+"),  # one that does not split has none
        ("B", 4, SignedPartition((), (2, 1)), None),  # a label of rank 3
        ("A", 2, SignedPartition((1,), (2,)), None),  # type A has no negative part
    ],
    ids=["D4-split-untagged", "D4-tagged", "B4-rank-3", "A2-negative"],
)
def test_spec_base_must_be_a_class(family, rank, label, tag):
    """A spec is refused when it is built, not later in induction, unless
    its base (label, tag) is a class of its group; the message names all
    three."""
    G = GroupDescriptor(family, rank)
    with pytest.raises(ValueError) as error:
        phi_for_class(G, label, tag)
    assert all(str(x) in str(error.value) for x in (label, tag, G))
    values = {key: (0, 0, 0) for key, _ in label.families}
    with pytest.raises(ValueError):
        LinearCharacterSpec(G, label, tag, values)


def test_phi_b_generator_values():
    # mu_i = 4 = 2^2: zeta_2 = zeta_8^4 = -1 on the negative 4-cycle
    mu = SignedPartition((4,), (3,))
    spec = phi_B(mu)
    assert phi_for_class(GroupDescriptor("B", 7), mu).values == spec.values
    assert spec.values[-4][0] == 4
    assert summary_value(spec.values, (-4, 1, 1, 0)) == MINUS_ONE
    # r_j value (-1)^(j-1): +1 for odd parts
    assert spec.values[3][2] == 0
    assert phi_B(SignedPartition((), (2,))).values[2][2] == 1
    assert phi_B(SignedPartition((1, 1), ())).values[-1][1] == 1
    assert phi_B(SignedPartition((), (2, 2))).values[2][1] == 0
    mu = SignedPartition((1, 1), ())
    gens = centralizer_generators(2, mu)
    x1 = gens.neg_swaps[0][1]
    assert evaluate(phi_B(mu), x1) == MINUS_ONE


def test_psi_values():
    mu = SignedPartition((2, 2), (3, 1))
    spec = psi(mu)
    assert phi_for_class(GroupDescriptor("D", 8), mu).values == spec.values
    # a negative i-cycle has order 2i, psi sends it to zeta_2i
    assert spec.values[-2][0] == 1
    assert summary_value(spec.values, (-2, 1, 1, 0)) == root(1, 4)
    assert spec.values[3][2] == 1 and spec.values[1][2] == 1
    gens = centralizer_generators(8, mu)
    c1 = gens.neg_cycles[0]
    assert c1.order() == 4
    assert evaluate(spec, c1) == root(1, 4)
    with pytest.raises(ValueError):
        psi(SignedPartition((1,), (1,)))


def test_phi_d_differs_from_phi_b_restriction():
    """The frozen witness: mu = ((2,2), ()) at n = 4."""
    mu = SignedPartition((2, 2), ())
    gens = centralizer_generators(4, mu)
    c1, c2 = gens.neg_cycles
    g = c1.compose(c2)
    assert g.is_even_signed()
    assert evaluate(phi_for_class(GroupDescriptor("D", 4), mu), g) == MINUS_ONE
    assert evaluate(phi_B(mu), g) == ONE


def test_phi_d_bullet_values():
    # phi_D(c_i c_k) = zeta_|c_i| zeta_|c_k|; phi_D(r_i r_k) = 1 for odd parts
    mu = SignedPartition((1, 2), (3, 3))
    spec = phi_for_class(GroupDescriptor("D", 9), mu)
    gens = centralizer_generators(9, mu)
    c1, c2 = gens.neg_cycles
    assert evaluate(spec, c1.compose(c2)) == root_mul(root(1, 2), root(1, 4))
    r1, r2 = gens.flips
    assert evaluate(spec, r1.compose(r2)) == ONE
    y1 = gens.pos_swaps[0][1]
    assert evaluate(spec, y1) == ONE


@pytest.mark.parametrize("n", range(4, 7))
def test_phi_d_bullets_all_labels(n):
    """The full phi_D bullet list, for every class of D_n; a split label is
    taken once, on its '+' side, whose base is w_mu itself."""
    G = GroupDescriptor("D", n)
    for cls in conjugacy_classes(G):
        if cls.tag == "-":
            continue
        mu = cls.label
        spec = phi_for_class(G, mu, cls.tag)
        gens = centralizer_generators(n, mu)
        for i, ci in enumerate(gens.neg_cycles):
            for k in range(i + 1, len(gens.neg_cycles)):
                expected = root_mul(root(1, 2 * mu.neg[i]), root(1, 2 * mu.neg[k]))
                assert evaluate(spec, ci.compose(gens.neg_cycles[k])) == expected
        for j, dj in enumerate(gens.pos_cycles):
            assert evaluate(spec, dj) == root(1, mu.pos[j])
        for _, x in gens.neg_swaps:
            assert evaluate(spec, x) == MINUS_ONE
        for _, y in gens.pos_swaps:
            assert evaluate(spec, y) == ONE
        for j, rj in enumerate(gens.flips):
            if mu.pos[j] % 2 == 0:
                assert evaluate(spec, rj) == MINUS_ONE
        odd_flips = [r for j, r in enumerate(gens.flips) if mu.pos[j] % 2]
        for a in range(len(odd_flips)):
            for b in range(a + 1, len(odd_flips)):
                assert evaluate(spec, odd_flips[a].compose(odd_flips[b])) == ONE


def test_evaluate_identity_and_rejection():
    mu = SignedPartition((), (2, 1))
    spec = phi_B(mu)
    assert evaluate(spec, SignedPermutation.identity(3)) == ONE
    with pytest.raises(ValueError):
        evaluate(spec, SignedPermutation((3, 2, 1)))  # not in the centralizer
    dspec = phi_for_class(GroupDescriptor("D", 4), SignedPartition((1, 1), (2,)))
    with pytest.raises(ValueError):
        evaluate(dspec, SignedPermutation((-1, 2, 3, 4)))  # odd, not in D


def test_phi_a_values():
    lam = (3, 3, 1)
    spec = phi_for_class(GroupDescriptor("A", 6), SignedPartition((), lam))
    gens = centralizer_generators(7, SignedPartition((), lam))
    d1 = gens.pos_cycles[0]
    assert evaluate(spec, d1) == root(1, 3)
    y1 = gens.pos_swaps[0][1]
    assert evaluate(spec, y1) == ONE


def _all_mus(n, even_only=False):
    for mu in signed_partitions(n):
        if even_only and len(mu.neg) % 2:
            continue
        yield mu


@pytest.mark.parametrize("n", range(1, 5))
def test_homomorphism_exhaustive(n):
    """evaluate is multiplicative on all pairs of C(w_mu), n <= 4."""
    for mu in signed_partitions(n):
        specs = [phi_B(mu)]
        if len(mu.neg) % 2 == 0:
            specs.append(psi(mu))
        values = {spec.name: {} for spec in specs}
        elements = []
        for images, neg_sum, pos_sum in centralizer_elements(n, mu):
            g = SignedPermutation(images)
            elements.append(g)
            for spec in specs:
                values[spec.name][images] = evaluate_summaries(spec, neg_sum, pos_sum)
        for spec in specs:
            table = values[spec.name]
            for g in elements:
                for h in elements:
                    gh = g.compose(h)
                    assert table[gh.images] == root_mul(
                        table[g.images], table[h.images]
                    )


@pytest.mark.parametrize("n", [5, 6])
def test_homomorphism_random(n):
    """10^4 random pairs per rank for n = 5, 6."""
    rng = random.Random(n)
    mus = list(signed_partitions(n))
    pair_count = 10_000
    for _ in range(pair_count // 100):
        mu = rng.choice(mus)
        elements = []
        for images, *_ in centralizer_elements(n, mu):
            elements.append(SignedPermutation(images))
        specs = [phi_B(mu)] + ([psi(mu)] if len(mu.neg) % 2 == 0 else [])
        for _ in range(100):
            g, h = rng.choice(elements), rng.choice(elements)
            for spec in specs:
                assert evaluate(spec, g.compose(h)) == root_mul(
                    evaluate(spec, g), evaluate(spec, h)
                )


def test_epsilon_spec_matches_sign_character():
    for n, mu in [(3, SignedPartition((1,), (2,))), (4, SignedPartition((2,), (2,)))]:
        G = GroupDescriptor("B", n)
        spec = epsilon_char(G, mu)
        for images, neg_sum, pos_sum in centralizer_elements(n, mu):
            got = evaluate_summaries(spec, neg_sum, pos_sum)
            expected = element_sign(G, SignedPermutation(images))
            assert got == (ONE if expected == 1 else MINUS_ONE)


def test_alpha_spec_matches_determinant():
    """Generator-value alpha agrees with the exact determinant on Fix."""
    cases = [
        ("B", 3, SignedPartition((2,), (1,)), None, Shape((1,))),
        ("B", 4, SignedPartition((1, 1), (2,)), None, Shape((2,))),
        ("D", 4, SignedPartition((1, 3), ()), None, Shape(())),
        ("D", 4, SignedPartition((), (2, 2)), "+", Shape((2, 2), "+")),
        ("D", 4, SignedPartition((), (2, 2)), "-", Shape((2, 2), "-")),
        ("A", 3, SignedPartition((), (2, 2)), None, Shape((2, 2))),
    ]
    for family, rank, mu, tag, shape in cases:
        G = GroupDescriptor(family, rank)
        n = G.degree
        w = class_rep(G, mu, tag)
        det_alpha = alpha_on_centralizer(G, shape, w)
        spec = alpha_char(G, mu, tag)
        flips = family != "A"
        parity = 0 if family == "D" else None
        for images, neg_sum, pos_sum in centralizer_elements(
            n, mu, flips=flips, parity=parity
        ):
            g = SignedPermutation(images)
            if tag == "-":
                g = g.conjugate(SignedPermutation.flip(n))
            expected = det_alpha(g)
            got = evaluate(spec, g)
            assert got == (ONE if expected == 1 else MINUS_ONE)
            assert expected * expected == 1


def test_alpha_full_group_shape():
    # L = S: the fixed space is 0 and alpha is identically 1
    G = GroupDescriptor("B", 2)
    w = class_rep(G, SignedPartition((1, 1), ()))
    value = alpha_on_centralizer(G, Shape(()), w)
    for g in group_elements(G):
        assert value(g) == 1


def test_alpha_examples():
    # B3, shape (1): flip of coordinate 3 acts by -1 on Fix = <e3>
    G = GroupDescriptor("B", 3)
    w = class_rep(G, SignedPartition((2,), (1,)))
    value = alpha_on_centralizer(G, Shape((1,)), w)
    assert value(SignedPermutation((1, 2, -3))) == -1
    assert value(SignedPermutation.identity(3)) == 1
    with pytest.raises(ValueError):
        alpha_on_centralizer(G, Shape((1,)), SignedPermutation.identity(3))


def test_spec_product_and_transport():
    mu = SignedPartition((), (2, 2))
    phi_d = phi_for_class(GroupDescriptor("D", 4), mu, "-")
    chi = spec_product(
        alpha_char(GroupDescriptor("D", 4), mu, "-"),
        epsilon_char(GroupDescriptor("D", 4), mu, "-"),
        phi_d,
    )
    w_minus = class_rep(GroupDescriptor("D", 4), mu, "-")
    assert base_rep(chi) == w_minus
    # product evaluates to the product of the factors
    g = w_minus
    parts = [
        evaluate(alpha_char(GroupDescriptor("D", 4), mu, "-"), g),
        evaluate(epsilon_char(GroupDescriptor("D", 4), mu, "-"), g),
        evaluate(phi_d, g),
    ]
    expected = ONE
    for p in parts:
        expected = root_mul(expected, p)
    assert evaluate(chi, g) == expected
    with pytest.raises(ValueError):
        spec_product(phi_B(mu), phi_for_class(GroupDescriptor("D", 4), mu, "+"))


def _sign(k):
    return MINUS_ONE if k % 2 else ONE


def _stock_values(family, negative, length):
    """The (cycle, swap, negation) values of phi, alpha and epsilon on a
    family of length-cycles, as roots, read off the module docstring of
    characters; a negative family has no negation, valued 1."""
    if family == "A":
        phi = (root(1, length), ONE, ONE)
    elif family == "B" and negative:
        odd = length
        while odd % 2 == 0:
            odd //= 2
        phi = (root(1, 2 * odd), MINUS_ONE, ONE)
    elif family == "B":
        phi = (root(1, length), ONE, _sign(length - 1))
    elif negative:  # phi_D is psi
        phi = (root(1, 2 * length), MINUS_ONE, ONE)
    else:
        phi = (root(1, length), ONE, MINUS_ONE)
    if negative:
        alpha = (ONE, ONE, ONE)
        epsilon = (_sign(length), _sign(length), ONE)
    else:
        alpha = (ONE, MINUS_ONE, MINUS_ONE)
        epsilon = (_sign(length - 1), _sign(length), _sign(length))
    alpha_phi = tuple(map(root_mul, alpha, phi))
    return {"phi": phi, "alpha*phi": alpha_phi,
            "chi": tuple(map(root_mul, epsilon, alpha_phi))}


def _generators(G, mu):
    """(family key, kind, generator) over the named generators of
    C_{B_n}(w_mu); kind 0, 1, 2 is a cycle, a block swap, a negation.
    Type A has no negations."""
    gens = centralizer_generators(G.degree, mu)
    for length, g in zip(mu.neg, gens.neg_cycles):
        yield -length, 0, g
    for length, g in zip(mu.pos, gens.pos_cycles):
        yield length, 0, g
    for i, g in gens.neg_swaps:
        yield -mu.neg[i], 1, g
    for j, g in gens.pos_swaps:
        yield mu.pos[j], 1, g
    if G.family != "A":
        for length, g in zip(mu.pos, gens.flips):
            yield length, 2, g


DIFFERENTIAL_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 7)]
    + [GroupDescriptor("B", r) for r in range(1, 7)]
    + [GroupDescriptor("D", r) for r in range(4, 7)]
)


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=str)
def test_stock_triples_at_the_centralizer_generators(G):
    """For phi, alpha.phi and chi on every class: the element-by-element
    value at each named generator of C(w_mu) (the oracle's coordinates,
    summaries and evaluate_summaries) equals the value the spec's triple
    (a, s, r) documents there, zeta_2L^a, (-1)^s or (-1)^r, and the stock
    rule's value written out as a root.  In type D the generators are taken
    in C_{B_n}(w_mu), whose restriction the character is, and on the base
    w_mu itself (a '-' tag is transported by conjugation only when
    evaluating at a group element)."""
    checked = 0
    for cls in conjugacy_classes(G):
        mu, tag = cls.label, cls.tag
        specs = {
            "phi": phi_for_class(G, mu, tag),
            "alpha*phi": spec_product(alpha_char(G, mu, tag), phi_for_class(G, mu, tag)),
            "chi": chi_char(G, mu, tag),
        }
        for key, kind, g in _generators(G, mu):
            length = abs(key)
            stock = _stock_values(G.family, key < 0, length)
            summaries = _summaries(coordinates(g, mu))
            for name, spec in specs.items():
                a, s, r = spec.values[key]
                documented = (root(a, 2 * length), root(s, 2), root(r, 2))[kind]
                got = evaluate_summaries(spec, *summaries)
                assert got == documented == stock[name][kind], (G, mu, tag, name, key, kind)
                checked += 1
    assert checked
