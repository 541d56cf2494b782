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

Each flat also carries an incidence bitset over the hyperplane list.  A
hyperplane contains a flat exactly when it relates two coordinates of
one block with the block's relative sign (x_j = s_j s_i x_i), or lies on
the zero block (x_i = 0 in type B, x_j = +-x_i), so the bits of a point
are ORed in coordinate by coordinate from its block-mates.  The bitset
determines the flat, and shared bits decide containment (X <= Y in the
lattice, i.e. X is a subspace of Y, iff bits(Y) is a subset of bits(X)).
The ambient space is Q^n for every family; in type A all flats contain
the diagonal, and codimension (n - dim) equals the degree in the
reflection representation, so nothing else changes.

Per element w the w-stable flats form the subposet on which the Moebius
function mu_w recurses top-down; its generating function

    P_w(t) = sum over stable X of mu_w(X) (-t)^(codim X)

has the trace of w on the degree-p cohomology of the arrangement
complement as its t^p coefficient.

mu_w(V, X) is computed once per interval type.  For a flat X with zero
block Z and other blocks B_1..B_m, the flats containing X are those of
the hyperplanes through X, so [V, X] is L(Z) x Pi(B_1) x ... x Pi(B_m):
L(Z) the lattice of the B_Z arrangement (D_Z in type D; nothing in type
A), Pi(B) the partition lattice of a block, its signs inherited from X.
A w stabilizing X acts on L(Z) through w|Z and permutes the Pi(B)
factors; the fixed points of an orbit of k factors are those of
Pi(B)^rho, rho = w^k on one block, acting through its underlying
permutation.  Mu is multiplicative over products, so mu_w(V, X) depends
only on the signed cycle type of w|Z and the multiset of (k, cycle type
of rho) over the block orbits (_interval_type).  Conjugate actions give
isomorphic fixed posets, so one subset scan per type suffices.

Orbits of flats are labelled by shapes, read off the point: the block
sizes, and in type D with no zero block and all sizes even the parity of
its negative entries.  A shape fixes the codimension of its flats
(shape_rank), so one table per class, shape -> sum of mu_w over the
w-stable flats of that shape (Lattice.shape_mu), serves every check: P_w
sums it by rank, the graded and os characters read P_w of each class, and
the per-shape character reads one entry per class.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .classfunctions import ClassFunction
from .groups import (
    BudgetError,
    GroupDescriptor,
    Hyperplane,
    conjugacy_classes,
    class_index,
    class_key,
    hyperplane_action,
    hyperplane_set,
)
from .shapes import Shape, shape_rank
from .signedperm import SignedPermutation

__all__ = [
    "Flat",
    "Lattice",
    "flat_count",
    "build_lattice",
    "get_lattice",
    "graded_os_character",
    "shape_os_character",
    "reflection_exponents",
    "DEFAULT_FLAT_BUDGET",
]

DEFAULT_FLAT_BUDGET = 300_000


class Flat(namedtuple("Flat", "index point bits dim")):
    """index into Lattice.flats, canonical point, incidence bits, dim."""

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
        self._shape_mu: dict[int, dict[Shape, int]] = {}

    @property
    def rank(self) -> int:
        return self.G.rank

    # -- fixed subposets and their Moebius functions -------------------------

    def fixed_subposet(self, w: SignedPermutation):
        """Indices of the w-stable flats.  w permutes the hyperplanes, so a
        flat is stable once the image of each of its hyperplanes is again
        one of them; the test stops at the first that is not."""
        action = hyperplane_action(self.G, w)
        out = []
        for f in self.flats:
            bits = rest = f.bits
            while rest:
                low = rest & -rest
                if not bits >> action[low.bit_length() - 1] & 1:
                    break
                rest ^= low
            else:
                out.append(f.index)
        return out

    def moebius(self, subposet, w: SignedPermutation) -> dict[int, int]:
        """mu_w on subposet = fixed_subposet(w), ordered by reverse inclusion
        from the bottom V.

        mu_w(V, X) depends only on _interval_type(X, w): the first flat of
        each type sums mu over the stable flats below it, and every later
        flat of that type reuses the value.
        """
        flats = sorted((self.flats[k] for k in subposet), key=lambda f: f.codim)
        if not flats or flats[0].codim != 0:
            raise ValueError("subposet must contain the ambient space")
        mu: dict[int, int] = {}
        by_type: dict = {}
        done: list[Flat] = []
        for f in flats:
            key = _interval_type(f.point, w)
            value = by_type.get(key)
            if value is None:
                total = 0
                bx = f.bits
                for g in done:
                    if g.bits & bx == g.bits:
                        total += mu[g.index]
                value = by_type[key] = 1 if not done else -total
            mu[f.index] = value
            done.append(f)
        return mu

    def shape_mu(self, w: SignedPermutation) -> dict[Shape, int]:
        """Shape -> sum of mu_w(X) over the w-stable flats X of that shape.

        Cached for class representatives and shared with the class of -w,
        which acts on every flat as w does; any other w is computed afresh.
        """
        k = class_index(self.G).get(class_key(w, self.G.family))
        cached = k is not None and conjugacy_classes(self.G)[k].rep == w
        if cached and k in self._shape_mu:
            return self._shape_mu[k]
        sub = self.fixed_subposet(w)
        mu = self.moebius(sub, w)
        table: dict[Shape, int] = {}
        for idx in sub:
            shape = self.shape_labels[idx]
            table[shape] = table.get(shape, 0) + mu[idx]
        if cached:
            self._shape_mu[k] = table
            n = self.G.degree
            if self.G.family == "B" or (self.G.family == "D" and n % 2 == 0):
                partner = w.compose(SignedPermutation.minus_identity(n))
                pk = class_index(self.G)[class_key(partner, self.G.family)]
                self._shape_mu.setdefault(pk, table)
        return table

    def poincare_polynomial(self, w: SignedPermutation):
        """Coefficients of P_w(t), ascending, length rank + 1: a shape fixes
        the codimension of its flats, so t^c collects the shapes of rank c."""
        coeffs = [0] * (self.rank + 1)
        for shape, total in self.shape_mu(w).items():
            c = shape_rank(self.G, shape)
            coeffs[c] += total * (-1) ** c
        return tuple(coeffs)


def _interval_type(point, w: SignedPermutation):
    """The key that fixes mu_w(V, X) for a w-stable flat X with this point.

    The signed cycle type of w on the zero block, and the sorted multiset,
    over w-orbits of the other blocks, of (orbit length k, cycle type of
    w^k on one block of the orbit).  A cycle of |w| off the zero block
    meets every block of its orbit equally often, so k is the number of
    labels it meets and it leaves one cycle of length len/k in w^k on a
    block.  Cycles are grouped by the orbit's smallest label; grouping them
    by the label a walk starts in would split an orbit and merge types.
    """
    images = w.images
    seen = [False] * len(point)
    zero = []
    orbits: dict[int, tuple[int, list[int]]] = {}
    for start in range(len(point)):
        if seen[start]:
            continue
        labels = set()
        length, sign, v = 0, 1, start
        while not seen[v]:
            seen[v] = True
            labels.add(abs(point[v]))
            length += 1
            image = images[v]
            if image < 0:
                sign = -sign
            v = abs(image) - 1
        if point[start] == 0:
            zero.append((sign, length))
        else:
            k = len(labels)
            orbits.setdefault(min(labels), (k, []))[1].append(length // k)
    blocks = sorted((k, tuple(sorted(rho))) for k, rho in orbits.values())
    return tuple(sorted(zero)), tuple(blocks)


def _points(G: GroupDescriptor):
    """(point, bits, shape) of every flat, in buckets by dimension.

    Coordinate i opens a block (label i + 1, sign +), joins an open block
    with either sign (only + in type A) or, in types B and D, joins the
    zero block.  Its incidence bits come from its block-mates: x_j = s x_i
    for an earlier j of its block, s the product of their signs; x_i = 0
    in type B; x_j = +-x_i for an earlier j of the zero block.  Type D
    drops the points whose zero block has one coordinate.
    """
    n = G.degree
    family = G.family
    bit = {h: 1 << k for k, h in enumerate(hyperplane_set(G))}
    # pair[j][i]: the bits of x_j = x_i and of x_j = -x_i, for j < i
    pair = [
        [(bit.get(Hyperplane(j, i, 1), 0), bit.get(Hyperplane(j, i, -1), 0))
         for i in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    axis = [bit.get(Hyperplane(i + 1, 0, 0), 0) for i in range(n)]
    buckets: list[list] = [[] for _ in range(n + 1)]
    point = [0] * n
    blocks: list[list[int]] = []
    zero: list[int] = []
    shapes: dict = {}

    def place(i, bits):
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
            buckets[len(blocks)].append((tuple(point), bits, shape))
            return
        point[i] = i + 1
        blocks.append([i])
        place(i + 1, bits)
        blocks.pop()
        for members in blocks:
            plus = minus = 0
            for j in members:
                same, opposite = pair[j][i]
                if point[j] < 0:
                    same, opposite = opposite, same
                plus |= same
                minus |= opposite
            label = point[members[0]]
            members.append(i)
            point[i] = label
            place(i + 1, bits | plus)
            if family != "A":
                point[i] = -label
                place(i + 1, bits | minus)
            members.pop()
        if family != "A":
            add = axis[i]
            for j in zero:
                same, opposite = pair[j][i]
                add |= same | opposite
            point[i] = 0
            zero.append(i)
            place(i + 1, bits | add)
            zero.pop()

    place(0, 0)
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
        for point, bits, shape in buckets[dim]:
            flats.append(Flat(len(flats), point, bits, dim))
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
    elif budget is not None and len(lattice.flats) > budget:
        raise BudgetError(
            f"lattice of {G} has {len(lattice.flats)} flats > budget {budget}"
        )
    return lattice


def graded_os_character(lattice: Lattice):
    """ClassFunctions of the cohomology of the complement, degrees 0..rank."""
    G = lattice.G
    classes = conjugacy_classes(G)
    rows = [lattice.poincare_polynomial(cls.rep) for cls in classes]
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
        sign * lattice.shape_mu(cls.rep).get(shape, 0)
        for cls in conjugacy_classes(G)
    ))


def reflection_exponents(G: GroupDescriptor):
    """Exponents m_i with P_1(t) = prod (1 + m_i t)."""
    n = G.degree
    if G.family == "A":
        return tuple(range(1, n))
    if G.family == "B":
        return tuple(2 * i - 1 for i in range(1, n + 1))
    return tuple(2 * i - 1 for i in range(1, n)) + (n - 1,)
