"""Classical Coxeter groups A_{n-1}, B_n, D_n as signed permutation groups.

All three families act on Q^n by signed permutation matrices: type A
elements are the all-positive ones (with the reflection representation the
sum-zero subspace), type D the even-signed ones.  A conjugacy class is its
label, a (signed) partition: the lengths of the negative and the positive
cycles of its elements.  In type D a class with all cycles positive of even
length splits in two, distinguished by a +/- tag: '+' holds the product of
signed cycles on consecutive coordinates, '-' its conjugate by the sign
change t of the first coordinate.  No element is built: every class datum
used here is read off the label.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from . import centralizers
from .partitions import SignedPartition, partitions, signed_partitions

__all__ = [
    "BudgetError",
    "DEFAULT_FLAT_BUDGET",
    "GroupDescriptor",
    "ConjClass",
    "conjugacy_classes",
    "code_index",
    "reflection_length",
    "sign_character",
    "Hyperplane",
    "hyperplane_set",
]


class BudgetError(RuntimeError):
    """An enumeration or lattice build would exceed the configured budget."""


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


def _splits_in_d(mu: SignedPartition) -> bool:
    return not mu.neg and all(p % 2 == 0 for p in mu.pos)


@lru_cache(maxsize=None)
def _classes(G: GroupDescriptor) -> tuple[ConjClass, ...]:
    n = G.degree
    out = []
    if G.family == "A":
        for lam in partitions(n):
            mu = SignedPartition((), lam)
            c = centralizers.symmetric_centralizer_order(mu)
            out.append(ConjClass(mu, None, G.order // c, c))
        return tuple(out)
    if G.family == "B":
        for mu in signed_partitions(n):
            c = centralizers.centralizer_order(mu)
            out.append(ConjClass(mu, None, G.order // c, c))
        return tuple(out)
    for mu in signed_partitions(n):
        if len(mu.neg) % 2:
            continue
        cb = centralizers.centralizer_order(mu)
        if _splits_in_d(mu):
            out.append(ConjClass(mu, "+", G.order // cb, cb))
            out.append(ConjClass(mu, "-", G.order // cb, cb))
        else:
            out.append(ConjClass(mu, None, 2 * G.order // cb, cb // 2))
    return tuple(out)


def conjugacy_classes(G: GroupDescriptor, budget=None):
    """The classes in canonical order, listed from their labels: no element
    is enumerated, so only a caller's explicit budget bounds |G|."""
    if budget is not None and G.order > budget:
        raise BudgetError(
            f"|{G}| = {G.order} exceeds the element budget {budget}"
        )
    return _classes(G)


@lru_cache(maxsize=None)
def class_index(G: GroupDescriptor) -> dict:
    return {cls.key: k for k, cls in enumerate(_classes(G))}


@lru_cache(maxsize=None)
def code_index(G: GroupDescriptor) -> dict:
    """code + side * centralizers.side_unit(n) -> class index, for the
    cycle-type code of each class and the D split side 1 for '-', 0 for
    '+'; both sides lead to a class that does not split.  No code with an
    odd number of negative cycles names a class of D_n."""
    out = {}
    unit = centralizers.side_unit(G.degree)
    for k, cls in enumerate(_classes(G)):
        code = centralizers.cycle_code(cls.label)
        for side in (0, 1) if cls.tag is None else (cls.tag == "-",):
            out[code + side * unit] = k
    return out


def reflection_length(G: GroupDescriptor, mu: SignedPartition) -> int:
    """Codimension of the fixed space in the reflection representation of
    the class mu: the positive cycles span the fixed space of Q^n."""
    return G.degree - len(mu.pos)


def sign_character(G: GroupDescriptor, mu: SignedPartition) -> int:
    """Determinant on the reflection representation of the class mu, which
    is -1 to the reflection length (a product of that many reflections)."""
    return -1 if reflection_length(G, mu) % 2 else 1


# -- the reflection arrangement ------------------------------------------------


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
