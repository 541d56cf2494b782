"""Shapes: conjugacy classes of parabolic subgroups, and their cuspidal classes.

A shape of B_n is a partition lam of m, 0 <= m <= n, standing for the
parabolic W_{n-m} x S_lam (the first n-m coordinates carry a full
hyperoctahedral block, the rest Young blocks of sizes lam).  A shape of
A_{n-1} is a partition of n.  For D_n the shapes are the partitions of m
for m <= n-2 (parabolic D_{n-m} x S_lam), together with the partitions of
n (Young subgroups); a partition of n with all parts even labels two
non-conjugate parabolics S_lam and t S_lam t, tagged + and -.

A class's shape is its positive cycles with its split tag (class_shape):
the positive cycles of w_mu span its fixed space, so w_mu is cuspidal in
W_{|neg|} x S_pos, the parabolic whose fixed space that is.  The shapes of
G are the shapes of its classes, so the shape list, the shape check, the
ranks and the cuspidal classes are all read off the class list, and only
`groups` knows which labels are classes of A, B and D.  The type-D list
(partitions of n-1 dropped as redundant, all-even partitions of n doubled,
everything else kept once) follows from the type-D classes: a partition
of n-1 would leave one negative cycle, and only the all-even positive
labels split.

That list is cross-checked in the test suite against exhaustive conjugacy
of all standard parabolics for n = 4 and 5, and every shape list up to
A_12, B_10 and D_10 against the shapes of the flats, read off the
stable-structure table of the identity class.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .groups import GroupDescriptor, conjugacy_classes
from .partitions import format_partition, parse_partition

__all__ = [
    "Shape",
    "class_shape",
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


def class_shape(cls) -> Shape:
    """The shape of the parabolic in which the class (a groups.ConjClass)
    is cuspidal: its positive cycles, with its split tag."""
    return Shape(cls.label.pos, cls.tag)


@lru_cache(maxsize=None)
def shapes(G: GroupDescriptor) -> tuple[Shape, ...]:
    """The distinct class shapes by (size, partition, tag): partition
    tuples sort as `partitions` lists them, and '+' before '-'."""
    distinct = set(map(class_shape, conjugacy_classes(G)))
    return tuple(sorted(distinct, key=lambda shape: (sum(shape.lam), shape)))


def _check_shape(G: GroupDescriptor, shape: Shape):
    if shape not in shapes(G):
        raise ValueError(f"{shape} is not a shape of {G}")


@lru_cache(maxsize=None)
def shape_rank(G: GroupDescriptor, shape: Shape) -> int:
    """Rank of the parabolic = codimension of its fixed space.  Cached, so
    that each shape of the Poincare tables is validated once."""
    _check_shape(G, shape)
    return G.degree - len(shape.lam)


def cuspidal_labels(G: GroupDescriptor, shape: Shape):
    """Keys (mu, tag) of the cuspidal classes of the shape's parabolic, in
    class order."""
    _check_shape(G, shape)
    return tuple(
        cls.key for cls in conjugacy_classes(G) if class_shape(cls) == shape
    )
