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
complement as its t^p coefficient.  The stable flats are neither tested
nor built but counted: w permutes the blocks of a stable flat, so each
cycle of w goes into the zero block or runs through an orbit of blocks.
Such a structure (which cycles go where) fixes the interval type, the
shape and the number of flats it stands for (_stable_structures; these
are the fixed-point partition lattices of Hanlon, Pacific J. Math. 1981,
and their signed analogues, used as a counting argument).  In type D a
shape with no zero block and only even blocks splits by the parity of
the negative entries of its points.  That is the parity of the entries
each cycle's placement writes, since making a point canonical flips
whole blocks and flipping an even block keeps its parity; so type D also
counts each partial structure by that parity.

mu_w(V, X) is a product over the interval type.  For a flat X with zero
block Z and other blocks B_1..B_m, [V, X] is L(Z) x Pi(B_1) x ... x
Pi(B_m): L(Z) the lattice of the B_Z arrangement (D_Z in type D; nothing
in type A), Pi(B) the partition lattice of a block.  w acts on L(Z)
through w|Z and permutes the Pi(B) factors; the fixed points of an orbit
of k factors are those of Pi(B)^rho, rho = w^k on one block.  So
mu_w(V, X) depends only on the interval type: the signed cycle type of
w|Z and the multiset of (k, cycle type of rho) over the block orbits.  It
has one factor per orbit and one for Z, mu(.) being number-theoretic:
- orbit: mu(L) prod_{j=1}^{m-1} (-j L) if rho has m cycles, all of
  length L, else 0 (Hanlon, Pacific J. Math. 1981);
- Z in type B: the product, over each (sigma, L) shared by m cycles of
  w|Z, sigma the product of a cycle's signs, of prod_{j<m} (b - 2 L j),
  b = -1 for L = 1, sigma for L a power of 2 above 1, and 0 otherwise;
- Z in type D: the B value plus, for each sign s, m^s_1 times the B
  value with one (s, 1) cycle fewer, m^s_1 the number of (s, 1) cycles.
These are the constant (Z) and linear (orbit) terms of the
Frobenius-twisted point counts of the B_Z or D_Z and the type A
complements (Lehrer, J. London Math. Soc. 1987).

Orbits of flats are labelled by shapes: the block sizes, and in type D
with no zero block and all sizes even the parity of the point's negative
entries.  A shape fixes the codimension of its flats (shape_rank), so
one table per class, shape -> sum of count * mu_w over the stable
structures of that shape (Lattice.shape_mu), serves every check: P_w
sums it by rank, the graded and os characters read P_w of each class, and
the per-shape character reads one entry per class.  Each class is named
by its index in conjugacy_classes and counted from its label, with no
element built, and the class of -w shares the table of w.  None of them
reads a flat; the flats are still built, each labelled by its shape, and
the flat budget still refuses a lattice larger than it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import comb, prod

from .classfunctions import ClassFunction
from .groups import (
    DEFAULT_FLAT_BUDGET,
    BudgetError,
    GroupDescriptor,
    conjugacy_classes,
    class_index,
    hyperplane_set,
)
from .partitions import SignedPartition
from .shapes import Shape, shape_rank

__all__ = [
    "Flat",
    "Lattice",
    "flat_count",
    "build_lattice",
    "get_lattice",
    "graded_os_character",
    "shape_os_character",
    "DEFAULT_FLAT_BUDGET",
]


class Flat(namedtuple("Flat", "index point dim")):
    """index into Lattice.flats, canonical point, dim."""

    __slots__ = ()

    @property
    def codim(self) -> int:
        return len(self.point) - self.dim


class Lattice:
    def __init__(self, G: GroupDescriptor, flats, shape_labels):
        self.G = G
        self.hyperplanes = hyperplane_set(G)
        self.flats = flats
        self.shape_labels = shape_labels
        self.classes = conjugacy_classes(G)
        self._shape_mu: dict[int, dict[Shape, int]] = {}

    @property
    def rank(self) -> int:
        return self.G.rank

    # -- fixed subposets and their Moebius functions -------------------------

    def fixed_subposet(self, k: int) -> dict[tuple, int]:
        """(interval type, shape) -> number of flats stable under class k."""
        cls = self.classes[k]
        return _stable_structures(self.G, cls.label, cls.tag)

    def moebius(self, subposet: dict[tuple, int]) -> dict[Shape, int]:
        """Shape -> sum of mu_w(V, X) over the flats X that subposet =
        fixed_subposet(k) counts, from the closed form of each interval
        type (module docstring)."""
        family = self.G.family
        table: dict[Shape, int] = {}
        for (key, shape), count in subposet.items():
            table[shape] = table.get(shape, 0) + count * _interval_mu(family, *key)
        return table

    def shape_mu(self, k: int) -> dict[Shape, int]:
        """Shape -> sum of mu_w(X) over the flats X of that shape stable
        under an element w of class k.

        Cached, and shared with the class of -w, which acts on every flat
        as w does.
        """
        if k in self._shape_mu:
            return self._shape_mu[k]
        table = self.moebius(self.fixed_subposet(k))
        self._shape_mu[k] = table
        partner = _negated(self.G, self.classes[k])
        if partner is not None:
            self._shape_mu.setdefault(class_index(self.G)[partner], table)
        return table

    def poincare_polynomial(self, k: int):
        """Coefficients of P_w(t) for w in class k, ascending, length
        rank + 1: a shape fixes the codimension of its flats, so t^c
        collects the shapes of rank c."""
        coeffs = [0] * (self.rank + 1)
        for shape, total in self.shape_mu(k).items():
            c = shape_rank(self.G, shape)
            coeffs[c] += total * (-1) ** c
        return tuple(coeffs)


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
def _number_mu(n: int) -> int:
    """The number-theoretic Moebius function."""
    primes = [
        p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))
    ]
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def _zero_mu(counts: Counter) -> int:
    """mu_top of the type B zero block whose cycles have these (sigma, L)
    counts."""
    value = 1
    for (sigma, length), m in counts.items():
        b = -1 if length == 1 else sigma if length & (length - 1) == 0 else 0
        value *= prod(b - 2 * length * j for j in range(m))
    return value


def _interval_mu(family: str, zero: tuple, orbits: tuple) -> int:
    """mu_w(V, X) of the interval type (zero, orbits) that
    _stable_structures gives X, by the products of the module docstring."""
    value = 1
    for _, rho in orbits:
        length = rho[0]
        if any(r != length for r in rho):
            return 0
        value *= _number_mu(length) * prod(-j * length for j in range(1, len(rho)))
    if family == "A":
        return value
    counts = Counter(zero)
    total = _zero_mu(counts)
    if family == "D":
        for one in ((1, 1), (-1, 1)):
            total += counts[one] * _zero_mu(counts - Counter([one]))
    return value * total


def _stable_structures(G: GroupDescriptor, mu: SignedPartition, tag=None) -> dict:
    """(interval type, shape) -> number of flats stable under an element w
    of the class (mu, tag), counted from the structures of its cycles; no
    flat is built.

    For tag None or '+', w is w_mu, whose cycles run c_0 -> c_1 -> ... over
    consecutive coordinates from the smallest, every step positive except
    the last one of a negative cycle.  A cycle of length L and sign sigma
    (a part L of mu.pos or mu.neg) goes into the zero block (types B and
    D), opens an orbit of k blocks for a k dividing L, or joins an open
    orbit of the same k, where lam = +-1 is the scalar by which w^k acts on
    each block of the orbit: the cycle closes up iff
    sigma * lam^(L / k) = 1.  A structure says which cycles go where.  It fixes the interval type, the key of
    mu_w(V, X): the sorted (sigma, L) of the zero cycles and the sorted
    (k, sorted L / k) of the orbits, w^k leaving one cycle of length L / k
    on a block for each cycle of the orbit.  It fixes the shape: an orbit
    is k blocks of size sum(L / k), and type D drops a zero block of one
    coordinate.  And it fixes how many flats it stands for: the orbit's
    first cycle puts c_0 in its first block with sign +, and every cycle
    that joins it picks the block of its c_0 and, in types B and D, a sign,
    k * |signs| flats each.

    Only the D shapes with no zero block and all blocks even split, by the
    parity of the negative entries of the canonical point.  A cycle placed
    at block offset o with sign a writes a * lam^((o + j) // k) at c_j, and
    making the point canonical flips whole blocks, which keeps the parity
    of an even block's negatives.  So in type D each placement also carries
    the parity of the negatives it writes, and a partial structure is kept
    apart by that parity too.  The '-' class is t w_mu t, t the sign change
    of the first coordinate: t maps the flats stable under w_mu onto those
    stable under t w_mu t, keeping interval types and block sizes and
    flipping one entry of each point, so the split tags swap.

    The cycles are placed in (L, sigma) order, and the count of every
    partial structure is kept by its canonical state: the sorted zero
    cycles, the sorted open orbits (k, lam, L / k of each cycle) and the
    parity.  Partial structures with equal states have equal futures, so
    each state is extended once.
    """
    family = G.family
    signs = (1,) if family == "A" else (1, -1)
    cycles = sorted(
        [(length, -1) for length in mu.neg] + [(length, 1) for length in mu.pos]
    )

    def placements(length, k, lam, offsets, flips):
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

    states = {((), (), 0): 1}  # (zero (L, sigma), orbits (k, lam, rho), parity)
    for length, sigma in cycles:
        fits = [
            (k, lam)
            for k in range(1, length + 1)
            if length % k == 0
            for lam in signs
            if sigma * lam ** (length // k) == 1
        ]
        opens = {f: placements(length, *f, (0,), (1,)) for f in fits}
        joins = {f: placements(length, *f, range(f[0]), signs) for f in fits}
        grown: dict = {}
        for (zero, orbits, parity), count in states.items():
            if family != "A":
                state = (zero + ((length, sigma),), orbits, parity)
                grown[state] = grown.get(state, 0) + count
            for i, (k, lam, rho) in enumerate(orbits):
                if (k, lam) not in joins:
                    continue
                joined = (k, lam, rho + (length // k,))
                rest = tuple(sorted(orbits[:i] + (joined,) + orbits[i + 1:]))
                for bit, m in joins[k, lam]:
                    state = (zero, rest, parity ^ bit)
                    grown[state] = grown.get(state, 0) + count * m
            for (k, lam), ways in opens.items():
                rest = tuple(sorted(orbits + ((k, lam, (length // k,)),)))
                for bit, m in ways:
                    state = (zero, rest, parity ^ bit)
                    grown[state] = grown.get(state, 0) + count * m
        states = grown

    out: dict = {}
    for (zero, orbits, parity), count in states.items():
        zero_size = sum(length for length, _ in zero)
        if family == "D" and zero_size == 1:
            continue
        sizes = tuple(sorted(
            (sum(rho) for k, _, rho in orbits for _ in range(k)), reverse=True
        ))
        side = None
        if family == "D" and not zero_size and all(p % 2 == 0 for p in sizes):
            side = "-" if parity ^ (tag == "-") else "+"
        key = (
            tuple(sorted((sigma, length) for length, sigma in zero)),
            tuple(sorted((k, rho) for k, _, rho in orbits)),
        )
        entry = (key, Shape(sizes, side))
        out[entry] = out.get(entry, 0) + count
    return out


def _points(G: GroupDescriptor):
    """(point, shape) of every flat, in buckets by dimension.

    Coordinate i opens a block (label i + 1, sign +), joins an open block
    with either sign (only + in type A) or, in types B and D, joins the
    zero block.  Type D drops the points whose zero block has one
    coordinate.
    """
    n = G.degree
    family = G.family
    buckets: list[list] = [[] for _ in range(n + 1)]
    point = [0] * n
    blocks: list[list[int]] = []
    zero: list[int] = []
    shapes: dict = {}

    def place(i):
        if i == n:
            if family == "D" and len(zero) == 1:
                return
            lam = tuple(sorted(map(len, blocks), reverse=True))
            tag = None
            if family == "D" and not zero and all(p % 2 == 0 for p in lam):
                tag = "-" if sum(x < 0 for x in point) % 2 else "+"
            shape = shapes.get((lam, tag))
            if shape is None:
                shape = shapes[lam, tag] = Shape(lam, tag)
            buckets[len(blocks)].append((tuple(point), shape))
            return
        point[i] = i + 1
        blocks.append([i])
        place(i + 1)
        blocks.pop()
        for members in blocks:
            label = point[members[0]]
            members.append(i)
            point[i] = label
            place(i + 1)
            if family != "A":
                point[i] = -label
                place(i + 1)
            members.pop()
        if family != "A":
            point[i] = 0
            zero.append(i)
            place(i + 1)
            zero.pop()

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


def build_lattice(G: GroupDescriptor, budget=DEFAULT_FLAT_BUDGET) -> Lattice:
    """Every flat once, by codimension, the ambient space first.  An
    over-budget lattice is refused from its exact size, before any flat
    is built."""
    count = flat_count(G)
    if budget is not None and count > budget:
        raise BudgetError(f"flat budget {budget} exceeded while building {G} lattice")
    buckets = _points(G)
    flats, labels = [], []
    for dim in range(G.degree, -1, -1):
        for point, shape in buckets[dim]:
            flats.append(Flat(len(flats), point, dim))
            labels.append(shape)
        buckets[dim] = None
    if len(flats) != count:
        raise AssertionError(f"{G} lattice has {len(flats)} flats, expected {count}")
    return Lattice(G, flats, tuple(labels))


_LATTICES: dict[GroupDescriptor, Lattice] = {}


def get_lattice(G: GroupDescriptor, budget=DEFAULT_FLAT_BUDGET) -> Lattice:
    """Build-once cache; lattices are immutable after construction.

    The budget binds even on a cache hit, so a caller's limit means the
    same thing whether or not another caller built the lattice first.
    """
    lattice = _LATTICES.get(G)
    if lattice is None:
        lattice = build_lattice(G, budget)
        _LATTICES[G] = lattice
    elif budget is not None and flat_count(G) > budget:
        raise BudgetError(f"lattice of {G} has {flat_count(G)} flats > budget {budget}")
    return lattice


def graded_os_character(lattice: Lattice):
    """ClassFunctions of the cohomology of the complement, degrees 0..rank."""
    G = lattice.G
    classes = conjugacy_classes(G)
    rows = [lattice.poincare_polynomial(k) for k in range(len(classes))]
    return [
        ClassFunction(G, tuple(row[p] for row in rows))
        for p in range(lattice.rank + 1)
    ]


def shape_os_character(lattice: Lattice, shape: Shape) -> ClassFunction:
    """Per-shape refinement: the trace on the degree-shape_rank cohomology
    carried by the shape's orbit of flats."""
    G = lattice.G
    sign = (-1) ** shape_rank(G, shape)
    return ClassFunction(G, tuple(
        sign * lattice.shape_mu(k).get(shape, 0)
        for k in range(len(conjugacy_classes(G)))
    ))
