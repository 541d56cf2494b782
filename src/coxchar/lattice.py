"""Intersection lattice of the reflection arrangement.

The flats of the A, B and D arrangements are (signed) set partitions: set
partitions of the coordinates in type A, and in types B and D signed set
partitions with a zero block (of size other than 1 in type D), the
Dowling lattices (Dowling 1973; Orlik-Terao, Arrangements of Hyperplanes,
6.4).  A flat is stored as its canonical generic point: an integer tuple
that is 0 on the zero block and +-(smallest index of the block + 1) on
every other block, positive at that smallest index.  The points are
enumerated directly, each once, with no meets and no linear algebra: the
coordinates are placed in turn, each opening a block, joining an open
block with either sign (only + in type A) or joining the zero block (B
and D), and type D drops the points whose zero block has one coordinate.

The ambient space is Q^n for every family; in type A all flats contain
the diagonal, and codimension (n - dim) equals the degree in the
reflection representation, so nothing else changes.

Per class, the flats stable under an element w of it form a subposet
with Moebius function mu_w, taken from the ambient space V; its
generating function

    P_w(t) = sum over stable X of mu_w(X) (-t)^(codim X)

has the trace of w on the degree-p cohomology of the arrangement
complement as its t^p coefficient.  Orbits of flats are labelled by
shapes: the block sizes, and in type D with no zero block and all sizes
even the parity of the point's negative entries.  A shape fixes the
codimension of its flats (shape_rank), so one table per class, shape ->
sum of mu_w over the stable flats of that shape, serves every check.  A
lattice computes every class's table once, in class order
(Lattice.tables), and sums each by rank into P_w once (Lattice.rows):
the graded and os characters and the Poincare table read the rows, and
the per-shape character reads one entry of each table.  Each class is
named by its index in conjugacy_classes and counted from its label, with
no element built, and the class of -w shares the table of w.

The stable flats are neither tested nor built but counted: w permutes
the blocks of a stable flat, so each cycle of w goes into the zero block
(types B and D) or runs through an orbit of k blocks, k dividing its
length L, w^k acting on each block of the orbit by a scalar lam = +-1
with sigma * lam^(L/k) = 1, sigma the cycle's sign.  Such a structure
(which cycles go where) stands for a number of flats and fixes their
shape and their interval [V, X] = L(Z) x Pi(B_1) x ... x Pi(B_m): L(Z)
the lattice of the B_Z arrangement on the zero block Z (D_Z in type D;
nothing in type A), Pi(B) the partition lattice of a block.  These are
the fixed-point partition lattices of Hanlon (Pacific J. Math. 1981) and
their signed analogues, and mu_w(V, X) is a product of number-theoretic
factors, one per orbit and one for Z, the linear (orbit) and constant (Z)
terms of the Frobenius-twisted point counts of the type A and the B_Z or
D_Z complements (Lehrer, J. London Math. Soc. 1987):
- orbit of m cycles: mu(r) prod_{j=1}^{m-1} (-j r) if all have length
  L = k r, else 0;
- Z in type B: the product, over each (sigma, L) shared by m cycles of
  w|Z, of prod_{j<m} (b - 2 L j), b = -1 for L = 1, sigma for L a power
  of 2 above 1, and 0 otherwise;
- Z in type D: the B value, or any one zero 1-cycle spared with factor
  1 and the rest valued as in B: F(m+) F(m-) + m+ F(m+ - 1) F(m-)
  + m- F(m+) F(m- - 1), F(m) = prod_{j<m} (-1 - 2j), m+ and m- the
  numbers of positive and negative zero 1-cycles.

An orbit holds the cycles of one family of equal (L, sigma), keyed
sigma * L (SignedPartition.families), since lam and r fix sigma, so mu_w
is a product of one factor per family, bar the one spare.  Each family's
structures are counted once, with their factors folded in (_run_table):
a partial structure carries count times the factors decided so far, and
one whose factor is 0 is never made: no orbit opens with mu(r) = 0, no
cycle joins an orbit of another length, and no cycle of length L > 1
other than a power of 2 goes into Z.  A class's table is the product of
its families' tables (_weighted_structures).  None of this reads a
flat.  The flats are still built, as bare points and only so that they
are counted, and the flat budget refuses a lattice larger than it from
its exact size (flat_count).  The arrangement's hyperplanes
(hyperplane_set) are listed only for Lattice.hyperplanes and the tests.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from math import comb

from .cyclotomic import totient_moebius
from .groups import (
    DEFAULT_FLAT_BUDGET,
    BudgetError,
    GroupDescriptor,
    conjugacy_classes,
    class_index,
)
from .partitions import SignedPartition
from .shapes import Shape, shape_rank

__all__ = [
    "Hyperplane",
    "hyperplane_set",
    "Lattice",
    "flat_count",
    "build_lattice",
    "get_lattice",
    "graded_os_character",
    "shape_os_character",
    "DEFAULT_FLAT_BUDGET",
]


class Hyperplane(namedtuple("Hyperplane", "i j rel")):
    """x_i = rel * x_j for j > 0; the coordinate hyperplane x_i = 0 if j = 0."""

    __slots__ = ()

    def normal(self, n: int) -> tuple[int, ...]:
        row = [0] * n
        row[self.i - 1] = 1
        if self.j:
            row[self.j - 1] = -self.rel
        return tuple(row)

    def __str__(self) -> str:
        if not self.j:
            return f"x{self.i}=0"
        return f"x{self.i}={'' if self.rel > 0 else '-'}x{self.j}"


@lru_cache(maxsize=None)
def hyperplane_set(G: GroupDescriptor) -> tuple[Hyperplane, ...]:
    n = G.degree
    out = []
    if G.family == "B":
        out.extend(Hyperplane(i, 0, 0) for i in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(Hyperplane(i, j, 1))
            if G.family != "A":
                out.append(Hyperplane(i, j, -1))
    return tuple(out)


class Lattice:
    """The intersection lattice of G: flats lists the canonical point of
    every flat, the ambient space first and then by codimension.  A flat's
    index is its position there, and its dimension the number of distinct
    nonzero |entries| of its point."""

    def __init__(self, G: GroupDescriptor, flats):
        self.G = G
        self.hyperplanes = hyperplane_set(G)
        self.flats = flats

    def fixed_subposet(self, k: int) -> dict[Shape, int]:
        """Shape -> sum of mu_w(V, X) over the flats X of that shape stable
        under class k, zero sums kept (_weighted_structures)."""
        cls = conjugacy_classes(self.G)[k]
        return _weighted_structures(self.G, cls.label, cls.tag)

    def moebius(self, subposet: dict[Shape, int]) -> dict[Shape, int]:
        """subposet = fixed_subposet(k) with its zero sums dropped."""
        return {shape: total for shape, total in subposet.items() if total}

    @cached_property
    def tables(self) -> list[dict[Shape, int]]:
        """Every class's shape -> sum of mu_w(X) over the flats X of that
        shape stable under an element w of it, in class order.  The class
        of -w, which acts on every flat as w does, shares the table of w."""
        G = self.G
        classes = conjugacy_classes(G)
        tables: list = [None] * len(classes)
        for k, cls in enumerate(classes):
            if tables[k] is None:
                tables[k] = self.moebius(self.fixed_subposet(k))
                partner = _negated(G, cls)
                if partner is not None:
                    tables[class_index(G)[partner]] = tables[k]
        return tables

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """Every class's coefficients of P_w(t), ascending, length rank + 1,
        in class order: a shape fixes the codimension of its flats, so t^c
        collects the shapes of rank c."""
        rows = []
        for table in self.tables:
            coeffs = [0] * (self.G.rank + 1)
            for shape, total in table.items():
                c = shape_rank(self.G, shape)
                coeffs[c] += total * (-1) ** c
            rows.append(tuple(coeffs))
        return rows

    def poincare_polynomial(self, k: int) -> tuple[int, ...]:
        """Coefficients of P_w(t) for w in class k (rows)."""
        return self.rows[k]


def _negated(G: GroupDescriptor, cls):
    """The key (label, tag) of the class of -w for w in cls, or None when
    -1 is not in G (type A, type D of odd degree).

    -w has the cycles of w, the sign of an L-cycle times (-1)^L: odd
    cycles change sign and even ones keep it.  In type D the split side
    is the parity of the negative values met walking each cycle from its
    smallest entry; -1 adds L/2 of them on every (even) L-cycle, n/2 in
    all, so the tag swaps iff n = 2 mod 4.
    """
    n = G.degree
    if G.family == "A" or (G.family == "D" and n % 2):
        return None
    mu = cls.label
    neg = sorted([p for p in mu.neg if p % 2 == 0] + [p for p in mu.pos if p % 2])
    pos = sorted(
        [p for p in mu.pos if p % 2 == 0] + [p for p in mu.neg if p % 2], reverse=True
    )
    tag = cls.tag
    if tag is not None and n % 4 == 2:
        tag = "-" if tag == "+" else "+"
    return (SignedPartition(tuple(neg), tuple(pos)), tag)


@lru_cache(maxsize=None)
def _run_table(family: str, signed_length: int, run: int) -> tuple:
    """((block sizes, spared, parity), weight) over the structures of run
    cycles of length L and sign sigma, signed_length = sigma * L (a key of
    SignedPartition.families), count * weight summed by key; a cached
    tuple, so no caller can change it.

    A structure's count is the number of flats it stands for: the orbit's
    first cycle puts c_0 in its first block with sign +, and every cycle
    that joins it picks the block of its c_0 and, in types B and D, a
    sign, k * |signs| flats each.  Its weight, the product of its mu_w
    factors, is taken as each cycle is placed: mu(r) when an orbit opens,
    -j r on its j-th join, b - 2 L j for the j-th zero cycle, and in type
    D 1 for a spared zero 1-cycle if none is spared yet.  The partial
    structures are kept by their open orbits (k, lam, cycles), zero
    cycles, spared bit and parity; each state is extended once.
    """
    length = abs(signed_length)
    sigma = -1 if signed_length < 0 else 1
    signs = (1,) if family == "A" else (1, -1)

    def placements(k, lam, offsets, flips):
        """(parity of the negatives written, how many placements) over the
        given offsets and signs; in types A and B the parity is not kept."""
        if family != "D":
            return ((0, len(offsets) * len(flips)),)
        counts = [0, 0]
        for o in offsets:
            odd = sum(lam ** ((o + j) // k) < 0 for j in range(length))
            for a in flips:
                counts[(odd if a == 1 else length - odd) % 2] += 1
        return tuple((bit, m) for bit, m in enumerate(counts) if m)

    fits = [
        (k, lam)
        for k in range(1, length + 1)
        if length % k == 0 and totient_moebius(length // k)[1]
        for lam in signs
        if sigma * lam ** (length // k) == 1
    ]
    opens = {
        f: tuple((bit, m * totient_moebius(length // f[0])[1])
                 for bit, m in placements(*f, (0,), (1,)))
        for f in fits
    }
    joins = {f: placements(*f, range(f[0]), signs) for f in fits}
    # a zero L-cycle has factor 0 unless L is a power of 2
    zeroable = family != "A" and length & (length - 1) == 0
    b = -1 if length == 1 else sigma
    states = {((), 0, 0, 0): 1}  # (open orbits, zero cycles, spared, parity)

    def add(state, weight):
        states[state] = states.get(state, 0) + weight

    for _ in range(run):
        part, states = states, {}
        for (orbits, zero, spared, parity), count in part.items():
            if zeroable:
                add((orbits, zero + 1, spared, parity), count * (b - 2 * length * zero))
                if family == "D" and length == 1 and not spared:
                    add((orbits, zero, 1, parity), count)
            for i, (k, lam, j) in enumerate(orbits):
                rest = tuple(sorted(orbits[:i] + ((k, lam, j + 1),) + orbits[i + 1:]))
                weight = count * -j * (length // k)
                for bit, m in joins[k, lam]:
                    add((rest, zero, spared, parity ^ bit), weight * m)
            for (k, lam), ways in opens.items():
                rest = tuple(sorted(orbits + ((k, lam, 1),)))
                for bit, m in ways:
                    add((rest, zero, spared, parity ^ bit), count * m)
    table: dict = {}
    for (orbits, _, spared, parity), weight in states.items():
        sizes = tuple(sorted(j * (length // k) for k, _, j in orbits for _ in range(k)))
        table[sizes, spared, parity] = table.get((sizes, spared, parity), 0) + weight
    return tuple(table.items())


def _weighted_structures(G: GroupDescriptor, mu: SignedPartition, tag=None) -> dict:
    """Shape -> sum of mu_w(V, X) over the flats X of that shape stable
    under an element w of the class (mu, tag), zero sums kept: the product
    of its families' run tables (_run_table), block sizes merged, parities
    added and no two spared runs; no flat is built.

    For tag None or '+', w is w_mu, whose cycles run c_0 -> c_1 -> ... over
    consecutive coordinates from the smallest, every step positive except
    the last one of a negative cycle.

    Only the D shapes with no zero block and all blocks even split, by the
    parity of the negative entries of the canonical point.  A cycle placed
    at block offset o with sign a writes a * lam^((o + j) // k) at c_j, and
    making the point canonical flips whole blocks, which keeps the parity
    of an even block's negatives.  So in type D each placement also carries
    the parity of the negatives it writes.  The '-' class is t w_mu t, t
    the sign change of the first coordinate: t maps the flats stable under
    w_mu onto those stable under t w_mu t, keeping interval types and block
    sizes and flipping one entry of each point, so the split tags swap.
    """
    family = G.family
    states = {((), 0, 0): 1}  # (block sizes, spared, parity)
    for key, run in mu.families:
        part, states = states, {}
        for (sizes, spared, parity), count in part.items():
            for (more, spare, bit), weight in _run_table(family, key, run):
                if spared and spare:
                    continue
                state = (tuple(sorted(sizes + more)), spared | spare, parity ^ bit)
                states[state] = states.get(state, 0) + count * weight

    out: dict[Shape, int] = {}
    for (sizes, _, parity), weight in states.items():
        zero_size = G.degree - sum(sizes)
        if family == "D" and zero_size == 1:
            continue
        side = None
        if family == "D" and not zero_size and all(p % 2 == 0 for p in sizes):
            side = "-" if parity ^ (tag == "-") else "+"
        shape = Shape(sizes[::-1], side)
        out[shape] = out.get(shape, 0) + weight
    return out


def _points(G: GroupDescriptor):
    """The canonical point of every flat, in buckets by dimension (the
    number of nonzero blocks).

    Coordinate i opens a block (label i + 1, sign +), joins an open block
    with either sign (only + in type A) or, in types B and D, joins the
    zero block.  Type D drops the points whose zero block has one
    coordinate.
    """
    n = G.degree
    family = G.family
    signed = family != "A"
    buckets: list[list] = [[] for _ in range(n + 1)]
    point = [0] * n
    labels: list[int] = []  # of the open blocks
    zeros = 0

    def place(i):
        nonlocal zeros
        if i == n:
            if family != "D" or zeros != 1:
                buckets[len(labels)].append(tuple(point))
            return
        point[i] = i + 1
        labels.append(i + 1)
        place(i + 1)
        labels.pop()
        for label in labels:
            point[i] = label
            place(i + 1)
            if signed:
                point[i] = -label
                place(i + 1)
        if signed:
            point[i] = 0
            zeros += 1
            place(i + 1)
            zeros -= 1

    place(0)
    return buckets


def flat_count(G: GroupDescriptor) -> int:
    """The number of flats, from the counts of the signed set partitions
    that _points enumerates: the Bell number B(n) in type A, and in types
    B and D, summed over the size k of the zero block,
    C(n, k) sum_j S(n - k, j) 2^(n - k - j), each of the j other blocks
    carrying its signs up to one overall sign; type D drops k = 1.
    """
    n = G.degree
    stirling = [[1] + [0] * n]  # stirling[m][j] = S(m, j)
    for m in range(1, n + 1):
        prev = stirling[-1]
        stirling.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, n + 1)])
    if G.family == "A":
        return sum(stirling[n])
    return sum(
        comb(n, k) * sum(stirling[n - k][j] << (n - k - j) for j in range(n - k + 1))
        for k in range(n + 1)
        if not (G.family == "D" and k == 1)
    )


def build_lattice(G: GroupDescriptor) -> Lattice:
    """Every flat once, as its canonical point, by codimension, the ambient
    space first."""
    flats = [point for bucket in reversed(_points(G)) for point in bucket]
    count = flat_count(G)
    if len(flats) != count:
        raise AssertionError(f"{G} lattice has {len(flats)} flats, expected {count}")
    return Lattice(G, flats)


_LATTICES: dict[GroupDescriptor, Lattice] = {}


def get_lattice(G: GroupDescriptor, budget=DEFAULT_FLAT_BUDGET) -> Lattice:
    """Build-once cache; lattices are immutable after construction.

    The budget is compared with the exact flat count before the cache is
    read, so an over-budget lattice is refused before any flat is built,
    and a caller's limit means the same thing whether or not another
    caller built the lattice first.
    """
    if budget is not None and flat_count(G) > budget:
        raise BudgetError(f"flat budget {budget} exceeded while building {G} lattice")
    lattice = _LATTICES.get(G)
    if lattice is None:
        lattice = _LATTICES[G] = build_lattice(G)
    return lattice


def graded_os_character(lattice: Lattice):
    """ClassFunctions of the cohomology of the complement, degrees 0..rank."""
    from .classfunctions import ClassFunction  # induction code stays unloaded

    return [ClassFunction(lattice.G, column) for column in zip(*lattice.rows)]


def shape_os_character(lattice: Lattice, shape: Shape) -> ClassFunction:
    """Per-shape refinement: the trace on the degree-shape_rank cohomology
    carried by the shape's orbit of flats."""
    from .classfunctions import ClassFunction

    sign = (-1) ** shape_rank(lattice.G, shape)
    return ClassFunction(lattice.G, tuple(
        sign * table.get(shape, 0) for table in lattice.tables
    ))
