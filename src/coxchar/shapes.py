"""Shapes: conjugacy classes of parabolic subgroups, and their cuspidal classes.

A shape of B_n is a partition lam of m, 0 <= m <= n, standing for the
parabolic W_{n-m} x S_lam (the first n-m coordinates carry a full
hyperoctahedral block, the rest Young blocks of sizes lam).  A shape of
A_{n-1} is a partition of n.  For D_n the shapes are the partitions of m
for m <= n-2 (parabolic D_{n-m} x S_lam), together with the partitions of
n (Young subgroups); a partition of n with all parts even labels two
non-conjugate parabolics S_lam and t S_lam t, tagged + and -.

A class is cuspidal in a parabolic exactly when its fixed space equals the
fixed space of the parabolic; labels of cuspidal classes per shape are the
signed partitions mu with mu_bar = ((n-m), lam), in type D additionally
with an even number of negative parts.

The type-D list (partitions of n-1 dropped as redundant, all-even
partitions of n doubled, everything else kept once) is cross-checked in
the test suite against exhaustive conjugacy of all standard parabolics
for n = 4 and 5; no independent check is run at higher rank.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .groups import GroupDescriptor
from .partitions import SignedPartition, format_partition, parse_partition, partitions

__all__ = [
    "Shape",
    "shapes",
    "shape_rank",
    "cuspidal_labels",
    "parse_shape",
]


class Shape(namedtuple("Shape", "lam tag", defaults=(None,))):
    """lam: tuple[int, ...], tag: str | None."""

    __slots__ = ()

    def __str__(self) -> str:
        text = format_partition(self.lam) or "()"
        return f"{text}^{self.tag}" if self.tag else text


def parse_shape(text: str) -> Shape:
    text = text.strip()
    tag = None
    if text.endswith(("^+", "^-")):
        tag = text[-1]
        text = text[:-2]
    return Shape(parse_partition(text), tag)


@lru_cache(maxsize=None)
def shapes(G: GroupDescriptor) -> tuple[Shape, ...]:
    n = G.degree
    out = []
    if G.family == "A":
        return tuple(Shape(lam) for lam in partitions(n))
    if G.family == "B":
        for m in range(n + 1):
            out.extend(Shape(lam) for lam in partitions(m))
        return tuple(out)
    for m in range(n - 1):
        out.extend(Shape(lam) for lam in partitions(m))
    for lam in partitions(n):
        if all(p % 2 == 0 for p in lam):
            out.append(Shape(lam, "+"))
            out.append(Shape(lam, "-"))
        else:
            out.append(Shape(lam))
    return tuple(out)


def _check_shape(G: GroupDescriptor, shape: Shape):
    n = G.degree
    m = sum(shape.lam)
    if G.family == "A":
        if m != n or shape.tag:
            raise ValueError(f"{shape} is not a shape of {G}")
    elif G.family == "B":
        if m > n or shape.tag:
            raise ValueError(f"{shape} is not a shape of {G}")
    else:
        if m == n:
            even = all(p % 2 == 0 for p in shape.lam)
            if even != (shape.tag is not None):
                raise ValueError(f"{shape} is not a shape of {G}")
        elif m > n - 2 or shape.tag:
            raise ValueError(f"{shape} is not a shape of {G}")
    return n, m


def shape_rank(G: GroupDescriptor, shape: Shape) -> int:
    """Rank of the parabolic = codimension of its fixed space."""
    n, _ = _check_shape(G, shape)
    return n - len(shape.lam)


def cuspidal_labels(G: GroupDescriptor, shape: Shape):
    """Keys (mu, tag) of the cuspidal classes of the shape's parabolic."""
    n, m = _check_shape(G, shape)
    if G.family == "A":
        return ((SignedPartition((), shape.lam), None),)
    if G.family == "D" and m == n:
        mu = SignedPartition((), shape.lam)
        return ((mu, shape.tag),)
    out = []
    for nu in partitions(n - m):
        if G.family == "D" and len(nu) % 2:
            continue
        out.append((SignedPartition(tuple(reversed(nu)), shape.lam), None))
    return tuple(out)
