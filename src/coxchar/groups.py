"""Classical Coxeter groups A_{n-1}, B_n, D_n as signed permutation groups.

All three families act on Q^n by signed permutation matrices: type A
elements are the all-positive ones (with the reflection representation the
sum-zero subspace), type D the even-signed ones.  A conjugacy class is its
label, a (signed) partition: the lengths of the negative and the positive
cycles of its elements.  In type D a class with all cycles positive of even
length splits in two, distinguished by a +/- tag: '+' holds the product of
signed cycles on consecutive coordinates, '-' its conjugate by the sign
change t of the first coordinate.  No element is built: every class datum
used here, the centralizer order included, is read off the label.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .partitions import SignedPartition, partitions, signed_partitions

__all__ = [
    "BudgetError",
    "DEFAULT_FLAT_BUDGET",
    "GroupDescriptor",
    "ConjClass",
    "class_count",
    "conjugacy_classes",
    "centralizer_order",
    "reflection_length",
    "sign_character",
]


class BudgetError(RuntimeError):
    """The intersection lattice would exceed the flat budget."""


# The largest intersection lattice built (lattice.get_lattice).
DEFAULT_FLAT_BUDGET = 300_000


class GroupDescriptor(namedtuple("GroupDescriptor", "family rank")):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in ("A", "B", "D"):
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        if family == "D" and rank < 4:
            raise ValueError("type D needs rank >= 4")
        return super().__new__(cls, family, rank)

    @property
    def degree(self) -> int:
        """Number of coordinates the group permutes."""
        return self.rank + 1 if self.family == "A" else self.rank

    @property
    def order(self) -> int:
        n = self.degree
        if self.family == "A":
            return factorial(n)
        if self.family == "B":
            return 2**n * factorial(n)
        return 2 ** (n - 1) * factorial(n)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class ConjClass(namedtuple("ConjClass", "label tag size centralizer_order")):
    """label: SignedPartition, tag: str | None (the D split side)."""

    __slots__ = ()

    @property
    def key(self):
        return (self.label, self.tag)

    def __str__(self) -> str:
        tag = f"^{self.tag}" if self.tag else ""
        return f"{self.label}{tag}"


def _z(lam):
    """Order of the centralizer in S_m of a permutation of cycle type lam."""
    return prod(p ** lam.count(p) * factorial(lam.count(p)) for p in set(lam))


def centralizer_order(mu: SignedPartition) -> int:
    """|C_{W_n}(w_mu)| = prod (2i)^a_i a_i!  prod (2j)^b_j b_j!, that is
    2^(number of parts) z_neg z_pos."""
    return 2 ** (len(mu.neg) + len(mu.pos)) * _z(mu.neg) * _z(mu.pos)


def _splits_in_d(mu: SignedPartition) -> bool:
    return not mu.neg and all(p % 2 == 0 for p in mu.pos)


@lru_cache(maxsize=None)
def _classes(G: GroupDescriptor) -> tuple[ConjClass, ...]:
    n = G.degree
    out = []
    if G.family == "A":
        for lam in partitions(n):
            c = _z(lam)
            out.append(ConjClass(SignedPartition((), lam), None, G.order // c, c))
        return tuple(out)
    # The W_n class of mu lies in D_n when it has an even number of negative
    # cycles, and there it is one class or splits into two of equal size.
    for mu in signed_partitions(n):
        if G.family == "D" and len(mu.neg) % 2:
            continue
        tags = ("+", "-") if G.family == "D" and _splits_in_d(mu) else (None,)
        size = 2**n * factorial(n) // centralizer_order(mu) // len(tags)
        out.extend(ConjClass(mu, tag, size, G.order // size) for tag in tags)
    return tuple(out)


def class_count(G: GroupDescriptor) -> int:
    """The number of classes of G, counted without listing one: p(n) in
    type A; sum over k of p(k) p(n - k) in type B, k the size of the
    negative cycles; in type D the labels with an even number of negative
    cycles, plus one for each all-positive, all-even label (its class
    splits), of which there are p(n / 2).

    Euler's pentagonal theorem writes prod (1 - x^j) as the sum of
    (-1)^k x^g over the generalized pentagonal numbers g = k (3k - 1) / 2,
    k in Z, so p(m) = -sum over g > 0 of (-1)^k p(m - g).  The partitions
    of m counted with the sign (-1)^(number of parts) have the generating
    function prod 1 / (1 + x^j) = prod (1 - x^j) / (1 - x^(2j)), so
    q(m) = sum over g <= m with m - g even of (-1)^k p((m - g) / 2), and
    (p(m) + q(m)) / 2 of the partitions of m have an even number of
    parts.  Both take O(n^1.5) steps."""
    n = G.degree
    pentagonal = [(0, 1)]  # (g, (-1)^k) by g: k and -k give k (3k -+ 1) / 2
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = (-1) ** k
        pentagonal += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    p = [1]
    for m in range(1, n + 1):
        p.append(-sum(sign * p[m - g] for g, sign in pentagonal[1:] if g <= m))
    if G.family == "A":
        return p[n]

    def even(m):  # the partitions of m with an even number of parts
        q = sum(sign * p[(m - g) // 2]
                for g, sign in pentagonal if g <= m and (m - g) % 2 == 0)
        return (p[m] + q) // 2

    total = sum((p[k] if G.family == "B" else even(k)) * p[n - k]
                for k in range(n + 1))
    return total + (p[n // 2] if G.family == "D" and n % 2 == 0 else 0)


def conjugacy_classes(G: GroupDescriptor, _ignored=None):
    """The classes in canonical order, listed from their labels: no element
    is enumerated, so no budget bounds |G|.  A second argument is accepted
    and ignored, for callers that still pass an element budget."""
    return _classes(G)


@lru_cache(maxsize=None)
def class_index(G: GroupDescriptor) -> dict:
    return {cls.key: k for k, cls in enumerate(_classes(G))}


def reflection_length(G: GroupDescriptor, mu: SignedPartition) -> int:
    """Codimension of the fixed space in the reflection representation of
    the class mu: the positive cycles span the fixed space of Q^n."""
    return G.degree - len(mu.pos)


def sign_character(G: GroupDescriptor, mu: SignedPartition) -> int:
    """Determinant on the reflection representation of the class mu, which
    is -1 to the reflection length (a product of that many reflections)."""
    return -1 if reflection_length(G, mu) % 2 else 1
