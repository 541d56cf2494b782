"""Shapes: conjugacy classes of parabolic subgroups, and their cuspidal classes.

A shape of B_n is a partition lam of m, 0 <= m <= n, standing for the
parabolic W_{n-m} x S_lam (the first n-m coordinates carry a full
hyperoctahedral block, the rest Young blocks of sizes lam).  A shape of
A_{n-1} is a partition of n.  For D_n the shapes are the partitions of m
for m <= n-2 (parabolic D_{n-m} x S_lam), together with the partitions of
n (Young subgroups); a partition of n with all parts even labels two
non-conjugate parabolics S_lam and t S_lam t, tagged + and -.  One rule
(_tags) gives the tags under which a partition is a shape: none, the
pair +, -, or the single tag None; the shape list, the shape check and
the cuspidal labels all read it.

A class is cuspidal in a parabolic exactly when its fixed space equals the
fixed space of the parabolic; labels of cuspidal classes per shape are the
signed partitions mu with mu_bar = ((n-m), lam), in type D additionally
with an even number of negative parts, each carrying the shape's tag.

The type-D list (partitions of n-1 dropped as redundant, all-even
partitions of n doubled, everything else kept once) is cross-checked in
the test suite against exhaustive conjugacy of all standard parabolics
for n = 4 and 5, and every shape list up to A_12, B_10 and D_10 against
the shapes of the flats, read off the stable-structure table of the
identity class.
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
def _tags(G: GroupDescriptor, lam) -> tuple:
    """The tags under which lam is a shape of G: () when it is none,
    ('+', '-') for a type-D partition of n with all parts even, (None,)
    otherwise.  Cached: the shape list, ranks and cuspidal labels all
    read it."""
    n, m = G.degree, sum(lam)
    if m > n or G.family == "A" and m < n or G.family == "D" and m == n - 1:
        return ()
    if G.family == "D" and m == n and all(p % 2 == 0 for p in lam):
        return ("+", "-")
    return (None,)


@lru_cache(maxsize=None)
def shapes(G: GroupDescriptor) -> tuple[Shape, ...]:
    return tuple(
        Shape(lam, tag)
        for m in range(G.degree + 1)
        for lam in partitions(m)
        for tag in _tags(G, lam)
    )


def _check_shape(G: GroupDescriptor, shape: Shape):
    if shape.tag not in _tags(G, shape.lam):
        raise ValueError(f"{shape} is not a shape of {G}")
    return G.degree, sum(shape.lam)


@lru_cache(maxsize=None)
def shape_rank(G: GroupDescriptor, shape: Shape) -> int:
    """Rank of the parabolic = codimension of its fixed space.  Cached, so
    that each shape of the Poincare tables is validated once."""
    n, _ = _check_shape(G, shape)
    return n - len(shape.lam)


def cuspidal_labels(G: GroupDescriptor, shape: Shape):
    """Keys (mu, tag) of the cuspidal classes of the shape's parabolic."""
    n, m = _check_shape(G, shape)
    return tuple(
        (SignedPartition(tuple(reversed(nu)), shape.lam), shape.tag)
        for nu in partitions(n - m)
        if G.family != "D" or len(nu) % 2 == 0
    )
