import pytest

from conftest import mulclose
from coxchar.centralizers import centralizer_order, symmetric_centralizer_order
from coxchar.groups import GroupDescriptor
from coxchar.partitions import SignedPartition, signed_partitions
from oracles import (
    _summaries,
    centralizer_elements,
    centralizer_generators,
    conjugate_by_first_flip,
    coordinates,
    group_elements,
    reassemble,
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


def test_symmetric_centralizer_order():
    assert symmetric_centralizer_order(SignedPartition((), (2, 1, 1))) == 4
    assert symmetric_centralizer_order(SignedPartition((), (3,))) == 3
    with pytest.raises(ValueError):
        symmetric_centralizer_order(SignedPartition((1,), (1,)))


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
