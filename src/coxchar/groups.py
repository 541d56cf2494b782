"""Classical Coxeter groups A_{n-1}, B_n, D_n as signed permutation groups.

All three families act on Q^n by signed permutation matrices: type A
elements are the all-positive ones (with the reflection representation the
sum-zero subspace), type D the even-signed ones.  Conjugacy classes are
labelled by (signed) partitions; in type D a class with all cycles positive
of even length splits in two, distinguished by a +/- tag.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from . import centralizers
from .partitions import SignedPartition, partitions, signed_partitions
from .signedperm import SignedPermutation

__all__ = [
    "BudgetError",
    "DEFAULT_FLAT_BUDGET",
    "GroupDescriptor",
    "ConjClass",
    "signed_cycle_type",
    "conjugacy_classes",
    "d_split_side",
    "cycle_side_parity",
    "class_key",
    "code_index",
    "reflection_length",
    "sign_character",
    "Hyperplane",
    "hyperplane_set",
]


class BudgetError(RuntimeError):
    """An enumeration or lattice build would exceed the configured budget."""


# The largest intersection lattice built (lattice.build_lattice).
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

    def contains(self, w: SignedPermutation) -> bool:
        if w.n != self.degree:
            return False
        if self.family == "A":
            return w.is_positive()
        if self.family == "D":
            return w.is_even_signed()
        return True

    def coxeter_generators(self) -> tuple[SignedPermutation, ...]:
        n = self.degree
        trans = [SignedPermutation.transposition(n, i) for i in range(1, n)]
        if self.family == "A":
            return tuple(trans)
        if self.family == "B":
            return (SignedPermutation.flip(n),) + tuple(trans)
        return (SignedPermutation.neg_transposition(n),) + tuple(trans)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class ConjClass(namedtuple("ConjClass", "rep label tag size centralizer_order")):
    """rep: SignedPermutation, label: SignedPartition, tag: str | None."""

    __slots__ = ()

    @property
    def key(self):
        return (self.label, self.tag)

    def __str__(self) -> str:
        tag = f"^{self.tag}" if self.tag else ""
        return f"{self.label}{tag}"


def signed_cycle_type(w: SignedPermutation) -> SignedPartition:
    neg, pos = [], []
    for support, sign in w.signed_cycles():
        (neg if sign < 0 else pos).append(len(support))
    return SignedPartition(tuple(sorted(neg)), tuple(sorted(pos, reverse=True)))


def _splits_in_d(mu: SignedPartition) -> bool:
    return not mu.neg and all(p % 2 == 0 for p in mu.pos)


def cycle_side_parity(w: SignedPermutation, start: int) -> int:
    """Parity of the negative values met walking the cycle of w from start.

    For a positive cycle of even length the parity does not depend on the
    starting point (negating the start swaps the count with its complement
    in the even length), so summed over cycles it is a property of w.
    """
    v, negatives = start, 0
    while True:
        negatives += v < 0
        v = w(v)
        if abs(v) == abs(start):
            return negatives % 2


def d_split_side(w: SignedPermutation) -> str:
    """Which of the two D-classes of an all-even positive type w lies in.

    Returns '+' when w is conjugate to w_mu inside the even-signed group,
    '-' when it is conjugate to t w_mu t.  Any conjugator x with
    x w x^{-1} = w_mu has well-defined sign parity because C(w_mu) is
    even-signed for these types.  One conjugator sends each cycle, walked
    from its smallest entry, onto consecutive coordinates of a block of
    w_mu; its negative entries are the negative values met on those walks,
    so the side is the sum of the cycles' cycle_side_parity.
    """
    mu = signed_cycle_type(w)
    if not _splits_in_d(mu):
        raise ValueError(f"class {mu} does not split")
    if not w.is_even_signed():
        raise ValueError("element is not even-signed")
    side = sum(cycle_side_parity(w, support[0]) for support, _ in w.signed_cycles())
    return "-" if side % 2 else "+"


def class_key(w: SignedPermutation, family: str):
    """Fusion key (label, tag) of the class of w in its group."""
    mu = signed_cycle_type(w)
    if family == "D" and _splits_in_d(mu):
        return (mu, d_split_side(w))
    return (mu, None)


@lru_cache(maxsize=None)
def _classes(G: GroupDescriptor) -> tuple[ConjClass, ...]:
    n = G.degree
    out = []
    if G.family == "A":
        for lam in partitions(n):
            mu = SignedPartition((), lam)
            c = centralizers.symmetric_centralizer_order(mu)
            out.append(ConjClass(centralizers.w_mu(n, mu), mu, None, G.order // c, c))
        out.sort(key=lambda cls: (cls.label.neg, cls.label.pos))
        return tuple(out)
    if G.family == "B":
        for mu in signed_partitions(n):
            c = centralizers.centralizer_order(mu)
            out.append(ConjClass(centralizers.w_mu(n, mu), mu, None, G.order // c, c))
        return tuple(out)
    t = SignedPermutation.flip(n)
    for mu in signed_partitions(n):
        if len(mu.neg) % 2:
            continue
        cb = centralizers.centralizer_order(mu)
        rep = centralizers.w_mu(n, mu)
        if _splits_in_d(mu):
            out.append(ConjClass(rep, mu, "+", G.order // cb, cb))
            out.append(ConjClass(rep.conjugate(t), mu, "-", G.order // cb, cb))
        else:
            out.append(ConjClass(rep, mu, None, 2 * G.order // cb, cb // 2))
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
    """2 * cycle-type code + D split side (1 for '-') -> class index; both
    sides lead to a class that does not split."""
    out = {}
    for k, cls in enumerate(_classes(G)):
        key = 2 * centralizers.cycle_code(cls.label)
        for side in (0, 1) if cls.tag is None else (cls.tag == "-",):
            out[key + side] = k
    return out


def reflection_length(G: GroupDescriptor, w: SignedPermutation) -> int:
    """Codimension of the fixed space in the reflection representation."""
    positive = sum(1 for _, sign in w.signed_cycles() if sign > 0)
    return G.degree - positive


def sign_character(G: GroupDescriptor, w: SignedPermutation) -> int:
    """Determinant of w on the reflection representation."""
    cycles = w.signed_cycles()
    perm_sign = -1 if (w.n - len(cycles)) % 2 else 1
    if G.family == "A":
        return perm_sign
    return perm_sign * (-1 if w.neg_count() % 2 else 1)


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
