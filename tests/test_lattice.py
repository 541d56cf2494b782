import gc
import random
from collections import Counter
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from conftest import stretch_enabled
from coxchar.groups import GroupDescriptor, conjugacy_classes
from coxchar import lattice as lattice_module
from coxchar.lattice import (
    _weighted_structures,
    build_lattice,
    flat_count,
    get_lattice,
    graded_os_character,
    hyperplane_set,
    shape_os_character,
)
from coxchar.groups import DEFAULT_FLAT_BUDGET, BudgetError
from coxchar.linalg import Subspace
from coxchar.partitions import SignedPartition
from coxchar.shapes import Shape, shape_rank, shapes
from oracles import (
    _interval_mu,
    _stable_structures,
    class_of,
    class_rep,
    closure_by_meets,
    contains,
    coxeter_generators,
    flat_bits,
    flat_codim,
    flat_dim,
    group_elements,
    hyperplane_action,
    interval_type,
    point_count_poincare,
    reflection_exponents,
    shape_fix_space,
    shape_of_point,
    shape_sums_by_interval_type,
    stable_flats_by_bits,
    stable_points,
)
from signedperm import SignedPermutation


def poly_product(exponents, rank):
    coeffs = [1]
    for m in exponents:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i] += c
            new[i + 1] += c * m
        coeffs = new
    return tuple(coeffs + [0] * (rank + 1 - len(coeffs)))


def whitney_point_count(lattice, q):
    """sum mu(X) q^dim X over the full lattice, from the identity's shape
    table: a flat's dimension is its number of blocks."""
    identity = class_of(lattice.G, SignedPermutation.identity(lattice.G.degree))
    table = lattice.tables[identity]
    return sum(total * q ** len(shape.lam) for shape, total in table.items())


@lru_cache(maxsize=None)
def point_index(lattice):
    """Canonical point -> index of every flat."""
    return {point: index for index, point in enumerate(lattice.flats)}


def stable_subposet(lattice, w):
    """Index -> interval type of every w-stable flat, built flat by flat."""
    index = point_index(lattice)
    return {index[point]: key for point, key in stable_points(lattice.G, w)}


def flat_moebius(lattice, subposet):
    """mu_w(V, X) of every X of a stable_subposet, from the closed form of
    its interval type."""
    family = lattice.G.family
    return {idx: _interval_mu(family, *key) for idx, key in subposet.items()}


def incidence(G, space):
    """Bitset of the hyperplanes containing a subspace, by exact algebra."""
    normals = [h.normal(G.degree) for h in hyperplane_set(G)]
    return sum(
        1 << k for k, normal in enumerate(normals) if space.orthogonal_to(normal)
    )


def point_subspace(point):
    """The flat of a generic point: one signed indicator row per block."""
    labels = sorted({abs(x) for x in point if x})
    rows = [[(x > 0) - (x < 0) if abs(x) == c else 0 for x in point] for c in labels]
    return Subspace.from_vectors(len(point), rows)


def rref_closure(G):
    """(bits, dim) of every flat, closed under exact RREF meets with each
    hyperplane from the ambient space, as linear algebra finds them."""
    normals = [h.normal(G.degree) for h in hyperplane_set(G)]
    ambient = Subspace.full(G.degree)
    seen = {ambient}
    frontier = [ambient]
    while frontier:
        next_frontier = []
        for space in frontier:
            for normal in normals:
                meet = space.meet_hyperplane(normal)
                if meet not in seen:
                    seen.add(meet)
                    next_frontier.append(meet)
        frontier = next_frontier
    return {(incidence(G, space), space.dim) for space in seen}


def permute_bits(bits, action):
    return sum(1 << action[k] for k in range(len(action)) if bits >> k & 1)


def stable_by_permuting(lattice, w):
    """Indices of the flats whose hyperplane set w maps onto itself."""
    action = hyperplane_action(lattice.G, w)
    return [
        index
        for index, bits in enumerate(flat_bits(lattice))
        if permute_bits(bits, action) == bits
    ]


def moebius_by_scan(lattice, subposet):
    """mu of the subposet by the plain scan: every flat sums mu over all
    the subposet's flats below it, O(F^2) subset tests."""
    bits = flat_bits(lattice)
    mu = {}
    done = []
    for index in sorted(subposet, key=lambda k: flat_codim(lattice.flats[k])):
        bx = bits[index]
        below = sum(mu[g] for g in done if bits[g] & bx == bits[g])
        mu[index] = 1 if not done else -below
        done.append(index)
    return mu


def sums_by_shape(lattice, mu):
    """Shape -> sum of mu over the flats of that shape, zero sums dropped."""
    table = Counter()
    for idx, value in mu.items():
        table[shape_of_point(lattice.G, lattice.flats[idx])] += value
    return {shape: total for shape, total in table.items() if total}


def random_elements(G, count, seed):
    """count seeded random elements of G, none a class representative."""
    rng = random.Random(seed)
    n = G.degree
    reps = {class_rep(G, cls.label, cls.tag) for cls in conjugacy_classes(G)}
    out = []
    while len(out) < count:
        images = rng.sample(range(1, n + 1), n)
        if G.family != "A":
            images = [v * rng.choice((1, -1)) for v in images]
        w = SignedPermutation(tuple(images))
        if contains(G, w) and w not in reps:
            out.append(w)
    return out


def brute_point_count(G, q):
    """Points of F_q^n avoiding every reflecting hyperplane."""
    n = G.degree
    grids = np.indices((q,) * n, dtype=np.int32).reshape(n, -1)
    mask = np.ones(grids.shape[1], dtype=bool)
    for h in hyperplane_set(G):
        row = h.normal(n)
        value = np.zeros(grids.shape[1], dtype=np.int64)
        for c, coeff in enumerate(row):
            if coeff:
                value += coeff * grids[c]
        mask &= value % q != 0
    return int(mask.sum())


def stirling2(m, j):
    """Set partitions of m points into j blocks."""
    row = [1] + [0] * j
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, j + 1)]
    return row[j]


def signed_partition_count(m):
    """Signed set partitions of m points with no zero block: a block of
    size s has 2^(s-1) sign patterns up to its overall sign."""
    return sum(stirling2(m, j) * 2 ** (m - j) for j in range(m + 1))


def expected_flat_count(family, rank):
    """Bell numbers for A_(n-1); Dowling numbers for B_n, a zero block of
    k coordinates and a signed partition of the rest; D_n without k = 1."""
    if family == "A":
        return sum(stirling2(rank + 1, j) for j in range(rank + 2))
    return sum(
        comb(rank, k) * signed_partition_count(rank - k)
        for k in range(rank + 1)
        if not (family == "D" and k == 1)
    )


@pytest.mark.parametrize(
    "family,rank,count",
    # e.g. B_4: 49 + 4*11 + 6*3 + 4*1 + 1 = 116, D_4: 116 - 4*11 = 72
    [
        ("B", 2, 6),
        ("A", 2, 5),
        ("B", 3, 24),
        ("D", 4, 72),
        ("A", 3, 15),
        ("B", 4, 116),
        ("B", 7, 28_640),
        ("D", 7, 17_867),
        ("A", 8, 21_147),
        ("B", 8, 219_920),
        ("D", 8, 137_528),
        ("A", 9, 115_975),
    ],
)
def test_flat_counts(family, rank, count):
    """The build finds exactly as many flats as the recurrences count,
    uncached so that the rank-8 and rank-9 lattices are freed."""
    assert expected_flat_count(family, rank) == count
    G = GroupDescriptor(family, rank)
    assert flat_count(G) == count
    assert len(build_lattice(G).flats) == count


@pytest.mark.parametrize(
    "family,rank,count",
    [("B", 9, 1_832_224), ("B", 10, 16_430_176), ("D", 10, 10_335_766),
     ("A", 12, 27_644_437), ("B", 12, 1_606_879_040)],
)
def test_flat_count_of_lattices_too_large_to_build(family, rank, count):
    """The count that refuses an over-budget lattice, past rank 8, and with
    no lattice the identity's stable structures stand for every flat once."""
    assert expected_flat_count(family, rank) == count
    G = GroupDescriptor(family, rank)
    assert flat_count(G) == count
    identity = SignedPartition((), (1,) * G.degree)
    assert sum(_stable_structures(G, identity).values()) == count


ORACLE_GROUPS = (
    [("A", r) for r in range(1, 8)]
    + [("B", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 8)]
)


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_build_matches_closure_by_meets(family, rank):
    """The enumeration finds the flats the meet closure finds, each once,
    with the same incidence bits, dimension and shape, in codim order
    from the ambient space."""
    G = GroupDescriptor(family, rank)
    lattice = build_lattice(G)
    flats = lattice.flats
    bits = flat_bits(lattice)
    assert flat_codim(flats[0]) == 0 and bits[0] == 0
    assert all(flat_codim(f) <= flat_codim(g) for f, g in zip(flats, flats[1:]))
    got = Counter(
        (point, bits[k], flat_dim(point), shape_of_point(G, point))
        for k, point in enumerate(flats)
    )
    assert got == Counter(closure_by_meets(G))


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 8)]
    + [("B", r) for r in range(1, 8)]
    + [("D", r) for r in range(4, 8)],
)
def test_flats_are_bare_points(family, rank):
    """Each flat is its canonical point, a tuple of n ints and nothing
    else, and the build makes flat_count of them."""
    G = GroupDescriptor(family, rank)
    flats = build_lattice(G).flats
    assert len(flats) == flat_count(G)
    assert all(
        type(point) is tuple
        and len(point) == G.degree
        and all(type(x) is int for x in point)
        for point in flats
    )


def test_flats_leave_the_cyclic_collector():
    """A tuple of ints is untracked by the collector once a collection
    has seen it, so a built lattice adds nothing to later collections."""
    flats = build_lattice(GroupDescriptor("B", 6)).flats
    gc.collect()
    assert not any(gc.is_tracked(point) for point in flats)


@pytest.mark.parametrize("family,rank", [("B", 3), ("A", 3), ("D", 4)])
def test_codim_one_flats_are_hyperplanes(family, rank):
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    count = sum(1 for point in lattice.flats if flat_codim(point) == 1)
    assert count == len(hyperplane_set(G))


def test_b2_moebius_hand_values():
    G = GroupDescriptor("B", 2)
    lattice = get_lattice(G)
    identity = SignedPermutation.identity(2)
    full = flat_moebius(lattice, stable_subposet(lattice, identity))
    by_codim = {}
    for k, point in enumerate(lattice.flats):
        by_codim.setdefault(flat_codim(point), []).append(full[k])
    assert by_codim[0] == [1]
    assert sorted(by_codim[1]) == [-1, -1, -1, -1]
    assert by_codim[2] == [3]
    sub = stable_subposet(lattice, SignedPermutation.flip(2))
    assert len(sub) == 4
    mu = flat_moebius(lattice, sub)
    values = sorted(mu[k] for k in sub if flat_codim(lattice.flats[k]) == 1)
    assert values == [-1, -1]
    origin = [k for k in sub if flat_codim(lattice.flats[k]) == 2]
    assert [mu[k] for k in origin] == [1]
    # the subposet Moebius value differs from the full-lattice restriction
    assert full[origin[0]] == 3


def test_poincare_hand_values():
    G = GroupDescriptor("B", 2)
    lattice = get_lattice(G)
    identity = class_of(G, SignedPermutation.identity(2))
    assert lattice.poincare_polynomial(identity) == (1, 4, 3)
    flip = class_of(G, SignedPermutation.flip(2))
    assert lattice.poincare_polynomial(flip) == (1, 2, 1)


@pytest.mark.parametrize(
    "family,rank", [("B", 2), ("B", 3), ("A", 2), ("A", 3), ("D", 4)]
)
def test_bitset_containment_matches_subspaces(family, rank):
    """X <= Y as subspaces iff incidence(X) >= incidence(Y), with each
    flat's subspace spanned by the blocks of its generic point."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    bits = flat_bits(lattice)
    spaces = [point_subspace(point) for point in lattice.flats]
    for k, (point, space) in enumerate(zip(lattice.flats, spaces)):
        assert space.dim == flat_dim(point)
        assert incidence(G, space) == bits[k]
    for f, x in enumerate(spaces):
        for g, y in enumerate(spaces):
            bits_contain = bits[f] & bits[g] == bits[g]
            spaces_contain = all(y.contains(row) for row in x.basis)
            assert bits_contain == spaces_contain


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(2, 6)]
    + [("D", 4), ("D", 5)],
)
def test_flats_match_rref_closure(family, rank):
    """The generic-point closure finds the flats linear algebra finds."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    expected = rref_closure(G)
    assert len(lattice.flats) == len(expected)
    bits = flat_bits(lattice)
    got = {(bits[k], flat_dim(point)) for k, point in enumerate(lattice.flats)}
    assert got == expected


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(2, 6)]
    + [("D", 4), ("D", 5), ("D", 6)],
)
def test_shape_labels_are_orbit_labels(family, rank):
    """The shapes read off the points are shapes of G, constant on
    W-orbits, and each shape's standard fixed space carries its own."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    labels = [shape_of_point(G, point) for point in lattice.flats]
    bits = flat_bits(lattice)
    by_bits = {b: index for index, b in enumerate(bits)}
    assert set(labels) <= set(shapes(G))
    for g in coxeter_generators(G):
        action = hyperplane_action(G, g)
        for k, b in enumerate(bits):
            assert labels[by_bits[permute_bits(b, action)]] == labels[k]
    for shape in shapes(G):
        assert labels[by_bits[incidence(G, shape_fix_space(G, shape))]] == shape


def test_build_does_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice build called linear algebra")

    monkeypatch.setattr(Subspace, "meet_hyperplane", refuse)
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(refuse))
    assert len(build_lattice(GroupDescriptor("B", 4)).flats) == 116


@pytest.mark.parametrize(
    "family,rank", [("B", 2), ("B", 3), ("A", 3), ("D", 4), ("B", 4)]
)
def test_orbit_sizes_equal_normalizer_index(family, rank):
    """Flat orbit sizes are [W : N_W(W_L)], with the stabilizer enumerated."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    elements = list(group_elements(G))
    for shape in shapes(G):
        space = shape_fix_space(G, shape)
        orbit = sum(shape_of_point(G, point) == shape for point in lattice.flats)

        def image(g, row):
            out = [0] * G.degree
            for i, x in enumerate(row, start=1):
                v = g(i)
                out[abs(v) - 1] = x if v > 0 else -x
            return out

        stabilizer = sum(
            1
            for g in elements
            if Subspace.from_vectors(G.degree, [image(g, r) for r in space.basis])
            == space
        )
        assert orbit * stabilizer == G.order


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 4), ("A", 3)])
def test_orbit_codims_match_shape_rank(family, rank):
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for point in lattice.flats:
        assert flat_codim(point) == shape_rank(G, shape_of_point(G, point))


def test_central_element_fixes_everything():
    G = GroupDescriptor("B", 3)
    lattice = get_lattice(G)
    w0 = SignedPermutation.minus_identity(3)
    assert len(stable_subposet(lattice, w0)) == len(lattice.flats)
    central = conjugacy_classes(G)[class_of(G, w0)]
    assert sum(_stable_structures(G, central.label).values()) == len(lattice.flats)
    # -1 acts on every flat as 1 does, uncached
    tables = [
        lattice.moebius(lattice.fixed_subposet(class_of(G, w)))
        for w in (w0, SignedPermutation.identity(3))
    ]
    assert tables[0] == tables[1]
    # L^w = L^(w0 w)
    for cls in conjugacy_classes(G):
        w = class_rep(G, cls.label, cls.tag)
        assert set(stable_subposet(lattice, w)) == set(
            stable_subposet(lattice, w.compose(w0))
        )


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 7)), ("B", range(1, 7)), ("D", range(4, 7))],
)
def test_identity_poincare_is_exponent_product(family, ranks):
    for rank in ranks:
        G = GroupDescriptor(family, rank)
        lattice = get_lattice(G, budget=10_000)
        identity = class_of(G, SignedPermutation.identity(G.degree))
        got = lattice.poincare_polynomial(identity)
        assert got == poly_product(reflection_exponents(G), G.rank)


@pytest.mark.parametrize(
    "family,rank,primes",
    [
        ("A", 2, (5, 7, 11)),
        ("A", 3, (5, 7, 11)),
        ("B", 2, (5, 7, 11)),
        ("B", 3, (5, 7, 11)),
        ("B", 4, (5, 7)),
        ("D", 4, (5, 7)),
        ("D", 5, (5, 7)),
        ("B", 5, (5, 7)),
    ],
)
def test_whitney_sum_against_finite_field_points(family, rank, primes):
    """Independent oracle: the Moebius sum counts F_q-points of the
    arrangement complement."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for q in primes:
        assert whitney_point_count(lattice, q) == brute_point_count(G, q)


def test_degree_zero_is_trivial_and_degree_one_counts_hyperplanes():
    for G in [GroupDescriptor("B", 3), GroupDescriptor("D", 4), GroupDescriptor("A", 3)]:
        lattice = get_lattice(G)
        graded = graded_os_character(lattice)
        assert all(v == 1 for v in graded[0].values)
        assert graded[1][0] == len(hyperplane_set(G))
        total = sum(g[0] for g in graded)
        assert total == G.order


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 4), ("A", 5), ("B", 2), ("B", 4), ("B", 5), ("D", 4), ("D", 5)],
)
def test_shape_characters_sum_to_graded(family, rank):
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    graded = graded_os_character(lattice)
    totals = [
        [0] * len(conjugacy_classes(G)) for _ in range(G.rank + 1)
    ]
    for shape in shapes(G):
        p = shape_rank(G, shape)
        for k, v in enumerate(shape_os_character(lattice, shape).values):
            totals[p][k] += v
    for p in range(G.rank + 1):
        assert totals[p] == list(graded[p].values)


def _valued_elements(rank, shape):
    """(element, value) over B_rank of its shape character; B_0 is
    trivial, and its one shape () is 1."""
    if rank == 0:
        return [(SignedPermutation(()), 1)]
    G = GroupDescriptor("B", rank)
    values = shape_os_character(get_lattice(G), shape)
    return [(w, values[class_of(G, w)]) for w in group_elements(G)]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_shape_character_reduces_to_zero_block_and_parts(rank):
    """Brieskorn's split localised at a flat of shape (Z, lam): the shape
    character of B_n is induced from B_Z x B_m, m = n - Z, of top(B_Z)
    (the shape-() character) x the shape-lam character of B_m, whose
    flats have no zero block.  The induction sums over the elements of
    B_Z x B_m, the zero block on the first Z coordinates."""
    G = GroupDescriptor("B", rank)
    classes = conjugacy_classes(G)
    lattice = get_lattice(G)
    for shape in shapes(G):
        m = sum(shape.lam)
        Z = rank - m
        first = _valued_elements(Z, Shape(()))
        second = _valued_elements(m, shape)
        sums = [0] * len(classes)
        for u, a in first:
            for v, b in second:
                shifted = tuple(x + Z if x > 0 else x - Z for x in v.images)
                sums[class_of(G, SignedPermutation(u.images + shifted))] += a * b
        order_h = len(first) * len(second)
        induced = []
        for cls, total in zip(classes, sums):
            value, rest = divmod(cls.centralizer_order * total, order_h)
            assert rest == 0, (shape, cls)
            induced.append(value)
        assert list(shape_os_character(lattice, shape).values) == induced, shape


@pytest.mark.parametrize("family,rank", [("B", 3), ("B", 4), ("D", 4), ("D", 5)])
def test_pairing_shortcut_matches_direct_computation(family, rank):
    """Sharing the stable subposet between w and -w gives the same
    polynomials as recursing per representative."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for k, cls in enumerate(conjugacy_classes(G)):
        shared = lattice.poincare_polynomial(k)
        sub = stable_subposet(lattice, class_rep(G, cls.label, cls.tag))
        mu = flat_moebius(lattice, sub)
        direct = [0] * (G.rank + 1)
        for idx in sub:
            c = flat_codim(lattice.flats[idx])
            direct[c] += mu[idx] * (-1) ** c
        assert shared == tuple(direct)


def test_trivial_parabolic_shape_orbit_is_ambient():
    # the rank-0 shape (lambda = (1,...,1), L = {}) has orbit {V}
    G = GroupDescriptor("B", 3)
    lattice = get_lattice(G)
    piece = shape_os_character(lattice, Shape((1, 1, 1)))
    assert all(v == 1 for v in piece.values)
    # the shape's summand lives in degree 0 only
    assert shape_rank(G, Shape((1, 1, 1))) == 0


def refuse_to_build(G):
    raise AssertionError(f"{G} lattice built over budget")


def test_flat_budget(monkeypatch):
    """An over-budget lattice is refused from its count, before any flat
    is built."""
    monkeypatch.setattr(lattice_module, "_LATTICES", {})
    monkeypatch.setattr(lattice_module, "build_lattice", refuse_to_build)
    with pytest.raises(BudgetError):
        get_lattice(GroupDescriptor("B", 4), budget=10)


@pytest.mark.parametrize(
    "family,rank,count", [("A", 4, 52), ("B", 4, 116), ("D", 4, 72)]
)
def test_flat_budget_boundary(family, rank, count, monkeypatch):
    """A budget of exactly the flat count builds; one less is refused."""
    monkeypatch.setattr(lattice_module, "_LATTICES", {})
    G = GroupDescriptor(family, rank)
    message = f"flat budget {count - 1} exceeded while building {family}{rank} lattice"
    with pytest.raises(BudgetError) as refused:
        get_lattice(G, budget=count - 1)
    assert str(refused.value) == message
    assert len(get_lattice(G, budget=count).flats) == count


def test_flat_budget_binds_on_a_cached_lattice(monkeypatch):
    """A lattice already built under a larger budget is refused with the
    message of a refused build, and nothing is rebuilt."""
    G = GroupDescriptor("B", 4)
    cached = get_lattice(G)
    monkeypatch.setattr(lattice_module, "build_lattice", refuse_to_build)
    with pytest.raises(BudgetError) as refused:
        get_lattice(G, budget=115)
    assert str(refused.value) == "flat budget 115 exceeded while building B4 lattice"
    assert get_lattice(G, budget=116) is cached


SMALL_GROUPS = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 7)]
)


@pytest.mark.parametrize("family,rank", SMALL_GROUPS)
def test_moebius_and_stable_flats_match_oracles_on_every_class(family, rank):
    """Per-flat mu_w by interval type equals the full subset scan, the
    flats built from the cycles of w are those whose hyperplane set w maps
    onto itself (by the early-exit test and by permuting the whole set),
    each carries the interval type read off its point, and the class's
    shape table sums the scan by shape."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for cls in conjugacy_classes(G):
        assert_stable_flats_match_oracles(lattice, class_rep(G, cls.label, cls.tag))


def assert_stable_flats_match_oracles(lattice, w):
    sub = stable_subposet(lattice, w)
    assert sorted(sub) == stable_flats_by_bits(lattice, w)
    assert sorted(sub) == stable_by_permuting(lattice, w)
    for idx, key in sub.items():
        assert key == interval_type(lattice.flats[idx], w)
    scan = moebius_by_scan(lattice, sub)
    assert flat_moebius(lattice, sub) == scan
    assert lattice.tables[class_of(lattice.G, w)] == sums_by_shape(lattice, scan)


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, r in SMALL_GROUPS if 2 <= r <= 5]
)
def test_moebius_and_stable_flats_match_oracles_off_representatives(family, rank):
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for w in random_elements(G, 20, seed=rank):
        assert_stable_flats_match_oracles(lattice, w)


class Untouchable:
    """Stands in for Lattice.flats: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"moebius read lattice.flats ({name})")

    def __getitem__(self, key):
        raise AssertionError("moebius read lattice.flats")

    def __iter__(self):
        raise AssertionError("moebius read lattice.flats")

    def __len__(self):
        raise AssertionError("moebius read lattice.flats")


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("D", 5)])
def test_moebius_reads_only_the_interval_types(family, rank, monkeypatch):
    """Work guard: the weighted structures and their sums by shape come
    from the cycles of w alone, with no flat (and so no containment test)
    in reach, and still sum the scan by shape."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    for k, cls in enumerate(conjugacy_classes(G)):
        w = class_rep(G, cls.label, cls.tag)
        scan = moebius_by_scan(lattice, stable_subposet(lattice, w))
        expected = sums_by_shape(lattice, scan)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "flats", Untouchable())
            assert lattice.moebius(lattice.fixed_subposet(k)) == expected


NUMBER_MOEBIUS = {2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0}


@pytest.mark.parametrize(
    "family,n",
    [("A", n) for n in range(2, 10)]
    + [("B", n) for n in range(2, 8)]
    + [
        pytest.param(
            "B", 8,
            marks=pytest.mark.skipif(
                not stretch_enabled(), reason="B8 needs COXCHAR_STRETCH=1"
            ),
        )
    ],
)
def test_coxeter_element_top_coefficient(family, n):
    """Hand values of the top coefficient of P_w for a Coxeter element:
    (-1)^(n-1) mu(n) for the n-cycle of A_(n-1) (Hanlon), and for the
    negative n-cycle of B_n, -1 when n is a power of 2 and 0 otherwise."""
    if family == "A":
        G = GroupDescriptor("A", n - 1)
        w = SignedPermutation(tuple(range(2, n + 1)) + (1,))
        expected = (-1) ** (n - 1) * NUMBER_MOEBIUS[n]
    else:
        G = GroupDescriptor("B", n)
        w = SignedPermutation(tuple(range(2, n + 1)) + (-1,))
        expected = -1 if n & (n - 1) == 0 else 0
    assert get_lattice(G).poincare_polynomial(class_of(G, w))[-1] == expected


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 4), ("A", 4)])
def test_interval_type_is_conjugation_invariant(family, rank):
    """interval_type(g X, g w g^-1) == interval_type(X, w) for every
    Coxeter generator g, every class representative w and every w-stable X,
    and the types the flat-by-flat enumeration builds agree."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    bits = flat_bits(lattice)
    by_bits = {b: index for index, b in enumerate(bits)}
    for g in coxeter_generators(G):
        action = hyperplane_action(G, g)
        for cls in conjugacy_classes(G):
            w = class_rep(G, cls.label, cls.tag)
            conjugate = stable_subposet(lattice, w.conjugate(g))
            for idx, key in stable_subposet(lattice, w).items():
                gx = by_bits[permute_bits(bits[idx], action)]
                x, image = lattice.flats[idx], lattice.flats[gx]
                assert interval_type(image, w.conjugate(g)) == interval_type(x, w)
                assert conjugate[gx] == key


@pytest.mark.parametrize(
    "family,rank,types",
    [("A", 6, 15), ("B", 6, 30), ("D", 6, 23), ("B", 7, 45), ("D", 7, 34)],
)
def test_identity_runs_one_scan_per_block_shape(family, rank, types):
    """Work guard: for the identity the interval types, one closed-form
    value each, are the (zero-block size, block-size partition) pairs."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G, budget=30_000)
    identity = SignedPermutation.identity(G.degree)
    keys = {interval_type(point, identity) for point in lattice.flats}
    assert set(stable_subposet(lattice, identity).values()) == keys
    label = conjugacy_classes(G)[class_of(G, identity)].label
    assert {key for key, _ in _stable_structures(G, label)} == keys
    pairs = {
        (
            point.count(0),
            tuple(sorted(Counter(abs(x) for x in point if x).values())),
        )
        for point in lattice.flats
    }
    assert len(keys) == len(pairs) == types


@pytest.mark.parametrize("family,rank", [("B", 7), ("D", 7), ("A", 8)])
def test_identity_poincare_is_exponent_product_rank_7_and_8(family, rank):
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G, budget=30_000)
    got = lattice.poincare_polynomial(class_of(G, SignedPermutation.identity(G.degree)))
    assert got == poly_product(reflection_exponents(G), G.rank)


GATE_GROUPS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
)
STRETCH_GATE_GROUPS = [
    pytest.param(
        family, 8,
        marks=pytest.mark.skipif(
            not stretch_enabled(), reason="rank-8 gates need COXCHAR_STRETCH=1"
        ),
    )
    for family in "BD"
]


@pytest.mark.parametrize(
    "family,rank",
    GATE_GROUPS + STRETCH_GATE_GROUPS + [("A", 10), ("D", 9), ("B", 9)],
)
def test_stable_flat_counts_satisfy_burnside(family, rank):
    """Averaged over W, the number of w-stable flats is the number of flat
    orbits, one per shape: sum over classes of |C| |L^w| = |W| #shapes.
    The counts need no lattice, so the gate runs past the flat budget."""
    G = GroupDescriptor(family, rank)
    total = sum(
        cls.size * sum(_stable_structures(G, cls.label, cls.tag).values())
        for cls in conjugacy_classes(G)
    )
    assert total == G.order * len(shapes(G))


def quotient_poincare(family, rank):
    """The Poincare polynomial of M/W, ascending, length rank + 1."""
    coeffs = [0] * (rank + 1)
    if family == "B":
        coeffs = [1] + [2] * (rank - 1) + [1]
    else:
        coeffs[:2] = [1, 1]
        if family == "D" and rank % 2 == 0:
            coeffs[rank - 1:] = [1, 1]
    return coeffs


@pytest.mark.parametrize("family,rank", GATE_GROUPS + STRETCH_GATE_GROUPS)
def test_class_average_of_poincare_rows_is_quotient_poincare(family, rank):
    """The W-average of P_w is the Poincare polynomial of the orbit space
    M/W: 1 + t in type A (Arnold 1970), 1 + 2t + ... + 2t^(n-1) + t^n in
    B_n, and in D_n 1 + t for n odd, 1 + t + t^(n-1) + t^n for n even."""
    G = GroupDescriptor(family, rank)
    lattice = get_lattice(G)
    totals = [0] * (G.rank + 1)
    for k, cls in enumerate(conjugacy_classes(G)):
        for p, c in enumerate(lattice.poincare_polynomial(k)):
            totals[p] += cls.size * c
    assert totals == [G.order * c for c in quotient_poincare(family, rank)]


STRUCTURE_GROUPS = (
    [("A", r) for r in range(1, 8)]
    + [("B", r) for r in range(1, 8)]
    + [("D", r) for r in range(4, 8)]
)
STRETCH_STRUCTURE_GROUPS = [
    pytest.param(
        family, rank,
        marks=pytest.mark.skipif(
            not stretch_enabled(), reason="rank-8 oracle needs COXCHAR_STRETCH=1"
        ),
    )
    for family, rank in [("A", 8), ("B", 8), ("D", 8)]
]


@pytest.mark.parametrize("family,rank", STRUCTURE_GROUPS + STRETCH_STRUCTURE_GROUPS)
def test_structure_counts_match_stable_flats(family, rank):
    """The counted structures of every class equal its stable flats built
    one by one, summed by interval type and by shape, the type D tag read
    off each canonical point."""
    G = GroupDescriptor(family, rank)
    for cls in conjugacy_classes(G):
        flats = Counter(
            (key, shape_of_point(G, point))
            for point, key in stable_points(G, class_rep(G, cls.label, cls.tag))
        )
        assert _stable_structures(G, cls.label, cls.tag) == dict(flats)



FOLD_GROUPS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
    + [
        pytest.param(
            family, 8,
            marks=pytest.mark.skipif(
                not stretch_enabled(), reason="rank-8 fold needs COXCHAR_STRETCH=1"
            ),
        )
        for family in "BD"
    ]
    + [("B", 9), ("D", 9), ("A", 10)]
)


@pytest.mark.parametrize("family,rank", FOLD_GROUPS)
def test_weighted_structures_fold_to_the_interval_types(family, rank):
    """The shape table with mu_w folded into the placement, zero sums
    dropped, equals the structures counted by interval type, each type
    valued on its own (_interval_mu, with its own (m+, m-) zero-block
    formula) and summed by shape, on every class.  Neither side needs a
    lattice, so the gate runs past the flat budget."""
    G = GroupDescriptor(family, rank)
    for cls in conjugacy_classes(G):
        weighted = _weighted_structures(G, cls.label, cls.tag)
        table = {shape: total for shape, total in weighted.items() if total}
        assert table == shape_sums_by_interval_type(G, cls.label, cls.tag), cls


POINT_COUNT_GROUPS = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(1, 11)]
    + [("D", r) for r in range(4, 11)]
)
if stretch_enabled():
    POINT_COUNT_GROUPS += [("A", 13), ("A", 14), ("A", 15), ("B", 11), ("B", 12)]
    POINT_COUNT_GROUPS += [("D", 11), ("D", 12)]


@pytest.mark.parametrize("family,rank", POINT_COUNT_GROUPS)
def test_poincare_rows_equal_point_counts(family, rank):
    """Every class's Poincare row equals the one read off the Frobenius
    point count of the complement, a polynomial in q that knows no flat
    and no structure.  Within the flat budget the rows come from a built
    lattice, past it from the weighted structures summed by shape_rank;
    split D classes get the count's one row each."""
    G = GroupDescriptor(family, rank)
    if flat_count(G) <= DEFAULT_FLAT_BUDGET:
        rows = build_lattice(G).poincare_polynomial
    else:
        def rows(k):
            cls = conjugacy_classes(G)[k]
            row = [0] * (rank + 1)
            for shape, total in _weighted_structures(G, cls.label, cls.tag).items():
                c = shape_rank(G, shape)
                row[c] += total * (-1) ** c
            return tuple(row)
    for k, cls in enumerate(conjugacy_classes(G)):
        counted = point_count_poincare(G, cls.label, cls.tag)
        assert counted[rank + 1:] == (0,) * (G.degree - rank), cls  # type A's t^n
        assert rows(k) == counted[:rank + 1], cls


def swap_tags(structures):
    """The structures with the type D split tags of their shapes swapped."""
    swap = {"+": "-", "-": "+", None: None}
    return {
        (key, Shape(shape.lam, swap[shape.tag])): count
        for (key, shape), count in structures.items()
    }


@pytest.mark.parametrize("rank", range(4, 11))
def test_minus_class_structures_are_plus_with_tags_swapped(rank):
    """The '-' class t w_mu t is counted as the '+' class with the split
    tags swapped: t flips one entry of every point.  Both sides are built
    flat by flat from the representatives' cycles."""
    G = GroupDescriptor("D", rank)
    for cls in conjugacy_classes(G):
        if cls.tag != "-":
            continue
        built = {
            tag: dict(Counter(
                (key, shape_of_point(G, point))
                for point, key in stable_points(G, class_rep(G, cls.label, tag))
            ))
            for tag in "+-"
        }
        assert built["-"] == swap_tags(built["+"]), cls
        assert _stable_structures(G, cls.label, "-") == built["-"], cls
