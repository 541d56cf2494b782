import random
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial

import pytest

from conftest import mulclose
from coxchar import centralizers
from coxchar.centralizers import cycle_code, side_unit
from coxchar.characters import (
    LinearCharacterSpec,
    alpha_char,
    chi_char,
    epsilon_char,
    phi_for_class,
    spec_product,
)
from coxchar.groups import (
    GroupDescriptor,
    centralizer_order,
    conjugacy_classes,
)
from coxchar.partitions import SignedPartition, signed_partitions
from coxchar.verify import verify_regular
from oracles import (
    Cyc,
    _root_family_tally,
    _summaries,
    centralizer_elements,
    centralizer_generators,
    class_sums_two_pass,
    conjugate_by_first_flip,
    coordinates,
    group_elements,
    reassemble,
    summary_value,
    w_mu,
)
from signedperm import SignedPermutation


def test_generator_examples():
    # two negative fixed points: x_1 swaps the coordinates
    gens = centralizer_generators(2, SignedPartition((1, 1), ()))
    assert [(i, g.images) for i, g in gens.neg_swaps] == [(1, (2, 1))]
    # one positive 2-cycle: r_1 negates both coordinates
    gens = centralizer_generators(2, SignedPartition((), (2,)))
    assert [g.images for g in gens.flips] == [(-1, -2)]
    # y_1 for two positive 2-cycles after a negative part: offset |mu.neg|
    gens = centralizer_generators(5, SignedPartition((1,), (2, 2)))
    assert [(j, g.images) for j, g in gens.pos_swaps] == [(1, (1, 4, 5, 2, 3))]
    assert [g.images for g in gens.flips] == [
        (1, -2, -3, 4, 5),
        (1, 2, 3, -4, -5),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_generators_centralize(n):
    for mu in signed_partitions(n):
        w = w_mu(n, mu)
        for g in centralizer_generators(n, mu).all_generators():
            assert g.compose(w) == w.compose(g)


@pytest.mark.parametrize("n", range(1, 6))
def test_generated_group_is_the_centralizer(n):
    G = GroupDescriptor("B", n)
    for mu in signed_partitions(n):
        w = w_mu(n, mu)
        brute = {
            g.images for g in group_elements(G) if g.compose(w) == w.compose(g)
        }
        gens = centralizer_generators(n, mu).all_generators()
        closure = mulclose(gens)
        assert {g.images for g in closure} == brute
        assert len(brute) == centralizer_order(mu)


@pytest.mark.parametrize("n", range(1, 9))
def test_order_formula_consistency(n):
    """Centralizer orders from the product formula partition the group."""
    total = 0
    group_order = 2**n * __import__("math").factorial(n)
    for mu in signed_partitions(n):
        order = centralizer_order(mu)
        assert group_order % order == 0
        total += group_order // order
    assert total == group_order


def test_coordinates_of_w_mu_itself():
    mu = SignedPartition((1, 2), (3, 1))
    w = w_mu(7, mu)
    coords = coordinates(w, mu)
    for length, perm, exps in coords.neg:
        assert perm == tuple(range(len(perm)))
        assert all(e == 1 for e in exps)
    for length, perm, exps, flips in coords.pos:
        assert perm == tuple(range(len(perm)))
        assert all(e == 1 % length for e in exps)
        assert all(f == 0 for f in flips)


def test_coordinates_hand_examples():
    # coordinate swap on two negative fixed points: block transposition, k = 0
    mu = SignedPartition((1, 1), ())
    swap = SignedPermutation((2, 1))
    coords = coordinates(swap, mu)
    assert coords.neg == ((1, (1, 0), (0, 0)),)
    # whole-block negation of a positive 2-cycle: eps = 1, k = 0
    mu = SignedPartition((), (2,))
    r = SignedPermutation((-1, -2))
    coords = coordinates(r, mu)
    assert coords.pos == ((2, (0,), (0,), (1,)),)


@pytest.mark.parametrize("n", range(1, 5))
def test_coordinates_roundtrip_exhaustive(n):
    G = GroupDescriptor("B", n)
    for mu in signed_partitions(n):
        w = w_mu(n, mu)
        for g in group_elements(G):
            if g.compose(w) != w.compose(g):
                continue
            assert reassemble(coordinates(g, mu)) == g


def test_coordinates_rejects_non_centralizing():
    mu = SignedPartition((), (2, 1))
    with pytest.raises(ValueError):
        coordinates(SignedPermutation((3, 2, 1)), mu)
    with pytest.raises(ValueError):
        coordinates(SignedPermutation((-1, 2, 3)), mu)


@pytest.mark.parametrize("n", range(1, 6))
def test_stream_matches_brute_force(n):
    G = GroupDescriptor("B", n)
    for mu in signed_partitions(n):
        w = w_mu(n, mu)
        brute = {
            g.images for g in group_elements(G) if g.compose(w) == w.compose(g)
        }
        streamed = set()
        for images, neg_sum, pos_sum in centralizer_elements(n, mu):
            assert images not in streamed
            streamed.add(images)
        assert streamed == brute


def test_stream_options():
    mu = SignedPartition((), (2, 1))
    no_flips = {im for im, *_ in centralizer_elements(3, mu, flips=False)}
    assert no_flips == {(1, 2, 3), (2, 1, 3)}
    even = {im for im, *_ in centralizer_elements(3, mu, parity=0)}
    assert all(sum(1 for v in im if v < 0) % 2 == 0 for v in even for im in [v])
    assert len(even) == centralizer_order(mu) // 2


def test_stream_summaries_match_coordinates():
    mu = SignedPartition((1, 1), (2,))
    for images, neg_sum, pos_sum in centralizer_elements(4, mu):
        coords = coordinates(SignedPermutation(images), mu)
        assert (neg_sum, pos_sum) == _summaries(coords)


def test_conjugate_by_first_flip():
    w = SignedPermutation((2, -1, 3))
    t = SignedPermutation.flip(3)
    assert conjugate_by_first_flip(w.images) == w.conjugate(t).images


# -- valued family tallies -----------------------------------------------------


def _stock_triples(G):
    """(key, character name) -> the stock triple on that family, over every
    class of G."""
    out = {}
    for cls in conjugacy_classes(G):
        args = (G, cls.label, cls.tag)
        for name, make in (
            ("phi", phi_for_class), ("alpha", alpha_char),
            ("epsilon", epsilon_char), ("chi", chi_char),
        ):
            for key, triple in make(*args).values.items():
                out[(key, name)] = triple
    return out


def _oracle_tallies(family, key, m, triples):
    """The oracle's family tally, summed over the cycle types of the block
    permutation, valued per summary under each triple and summed exactly:
    name -> {(code, negatives, side): (value, count)}, the side kept only
    where an element's class can split (all its cycles positive and even)
    and both bits only in type D; with the cycles of each code."""
    roots = {name: Counter() for name in triples}
    codes, cycles_of = {}, {}
    tally = _root_family_tally(abs(key), m, key < 0, family != "A")
    for (cycles, summary, negatives, side), weight in tally.items():
        if cycles not in codes:
            code = codes[cycles] = cycle_code(SignedPartition(
                tuple(sorted(-c for c in cycles if c < 0)),
                tuple(sorted((c for c in cycles if c > 0), reverse=True)),
            ))
            cycles_of[code] = cycles
        splits = all(c > 0 and c % 2 == 0 for c in cycles)
        if family != "D":
            negatives = side = 0
        elif not splits:
            side = 0
        for name, triple in triples.items():
            value = summary_value({key: triple}, summary)
            roots[name][(codes[cycles], negatives, side), value] += weight
    out = {name: {} for name in triples}
    for name, counter in roots.items():
        sums = out[name]
        for (entry, value), weight in counter.items():
            total, count = sums.get(entry, (Cyc.zero(), 0))
            sums[entry] = (total + Cyc.from_root(value).scale(weight), count + weight)
        for entry, (total, count) in sums.items():
            value = total.as_rational()
            assert value is not None and value.denominator == 1, (entry, total)
            sums[entry] = (value.numerator, count)
    return out, cycles_of


def _assert_family_tally_equals_partition_sum(family, key, m, triples):
    """_family_tally, under each triple, equals the oracle's partition sum
    code by code, value and count, with the side read as the parity of the
    side digit; the oracle's own parity of the negative entries is the
    parity of the code's negative cycles."""
    length = abs(key)
    expected, cycles_of = _oracle_tallies(family, key, m, triples)
    for name, triple in triples.items():
        for code, negatives, _ in expected[name]:
            odd = sum(c < 0 for c in cycles_of[code]) % 2
            assert negatives == (odd if family == "D" else 0)
        got: dict = {}
        tally = centralizers._family_tally(length * m, key, m, family, *triple)
        for code, (value, count) in tally.items():
            digit, code = divmod(code, side_unit(length * m))
            cycles = cycles_of.get(code, (2,))
            splits = all(c > 0 and c % 2 == 0 for c in cycles)
            negatives = sum(c < 0 for c in cycles) % 2 if family == "D" else 0
            entry = (code, negatives, digit % 2 if splits else 0)
            old_value, old_count = got.get(entry, (0, 0))
            got[entry] = (old_value + value, old_count + count)
        assert got == expected[name], (family, key, m, name)


# every key with |L| <= 6 occurs in A5, B6 and D7
TRIPLE_GROUPS = [GroupDescriptor("A", 5), GroupDescriptor("B", 6), GroupDescriptor("D", 7)]


@pytest.mark.parametrize("G", TRIPLE_GROUPS, ids=lambda G: G.family)
def test_family_tally_equals_partition_sum(G):
    """The recurrence on the block cycle through the first block equals the
    oracle's sum over the cycle types lam of S_m, m!/z_lam conjugates each,
    valued by the oracle's own rule and summed exactly: every family of
    L <= 6 and m <= 6 blocks, under the stock phi, alpha, epsilon and chi
    triples."""
    stock = _stock_triples(G)
    keys = {key for key, _ in stock if abs(key) <= 6}
    assert keys == set(range(1, 7)) | (set() if G.family == "A" else set(range(-6, 0)))
    for key in sorted(keys):
        triples = {name: t for (k, name), t in stock.items() if k == key}
        assert len(triples) == 4
        for m in range(1, 7):
            _assert_family_tally_equals_partition_sum(G.family, key, m, triples)


@lru_cache(maxsize=None)
def _accepted_triples(key):
    """Every (a, s, r), a < 2L, that a LinearCharacterSpec accepts on the
    family key: a even on a positive family, r = 0 on a negative one."""
    length = abs(key)
    label = SignedPartition((length,), ()) if key < 0 else SignedPartition((), (length,))
    out = []
    for triple in product(range(2 * length), (0, 1), (0, 1)):
        try:
            LinearCharacterSpec(GroupDescriptor("B", length), label, None, {key: triple})
        except ValueError:
            continue
        out.append(triple)
    return tuple(out)


@pytest.mark.parametrize("family", "ABD")
def test_every_accepted_triple_reads_integer_family_values(family):
    """Not only the stock characters: under every triple a spec accepts,
    none of _family_tally's per-cycle readings raises (each is a union of
    Galois orbits), and the family's values equal the oracle's exact
    partition sum, for every +-L with L <= 6 and up to 3 blocks.  The
    family rule is the same in every spec, so this covers every linear
    character on such families, not only phi, alpha, epsilon and chi."""
    keys = [key for L in range(1, 7) for key in ((L,) if family == "A" else (L, -L))]
    for key in keys:
        triples = {triple: triple for triple in _accepted_triples(key)}
        assert len(triples) == 4 * abs(key)
        for m in range(1, 4):
            _assert_family_tally_equals_partition_sum(family, key, m, triples)


@pytest.mark.parametrize("family", "ABD")
def test_family_tally_total_weight(family):
    """A family of m blocks of L-cycles is K wr S_m, of order |K|^m m!:
    |K| = 2L, or L for the positive blocks of type A, which are never
    negated."""
    keys = range(1, 15) if family == "A" else [k for L in range(1, 15) for k in (L, -L)]
    for key in keys:
        block = abs(key) if family == "A" else 2 * abs(key)
        for m in range(1, 14 // abs(key) + 1):
            tally = centralizers._family_tally(abs(key) * m, key, m, family, 0, 0, 0)
            total = sum(count for _, count in tally.values())
            assert total == block**m * factorial(m), (key, m)


def test_family_tally_is_valued_once_per_group():
    """The regular check of B8 values each family of m' blocks, m' up to
    its count in some label and the empty family included, once per
    (key, phi triple): every other induction finds its tallies cached."""
    G = GroupDescriptor("B", 8)
    centralizers._family_tally.cache_clear()
    assert verify_regular(G).passed
    expected = set()
    for cls in conjugacy_classes(G):
        values = phi_for_class(G, cls.label, cls.tag).values
        for key, count in cls.label.families:
            expected.update((key, m, values[key]) for m in range(count + 1))
    assert centralizers._family_tally.cache_info().misses == len(expected)


SUM_GROUPS = (
    [GroupDescriptor("A", r) for r in range(1, 10)]
    + [GroupDescriptor("B", r) for r in range(1, 9)]
    + [GroupDescriptor("D", r) for r in range(4, 11)]
)


def _assert_class_sums_equal_two_pass(G, spec, what):
    args = (G, spec.label, spec.tag, spec.values)
    assert centralizers.class_sums(*args) == class_sums_two_pass(*args), what


@pytest.mark.parametrize("G", SUM_GROUPS, ids=str)
def test_class_sums_equal_the_two_pass_route(G):
    """Summing the largest family straight into the classes gives the sums
    and the element count of one tally of the whole centralizer mapped to
    the classes afterwards, on every class (both sides of each D split
    pair) under phi, alpha.phi, chi and epsilon."""
    for cls in conjugacy_classes(G):
        args = (G, cls.label, cls.tag)
        phi = phi_for_class(*args)
        specs = {
            "phi": phi,
            "alpha.phi": spec_product(alpha_char(*args), phi),
            "chi": chi_char(*args),
            "epsilon": epsilon_char(*args),
        }
        for name, spec in specs.items():
            _assert_class_sums_equal_two_pass(G, spec, f"{G} {cls} {name}")


@pytest.mark.parametrize("G", SUM_GROUPS, ids=str)
def test_class_sums_equal_the_two_pass_route_under_random_triples(G):
    """The same under seeded random triples that a spec accepts, drawn
    family by family from every accepted (a, s, r), so that no shortcut
    that holds only for the stock characters can pass."""
    rng = random.Random(str(G))
    for cls in conjugacy_classes(G):
        for _ in range(2):
            values = {
                key: rng.choice(_accepted_triples(key)) for key, _ in cls.label.families
            }
            spec = LinearCharacterSpec(G, cls.label, cls.tag, values)
            _assert_class_sums_equal_two_pass(G, spec, f"{G} {cls} {values}")
