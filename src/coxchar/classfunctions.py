"""Class functions and induction from centralizers.

A ClassFunction holds one value per conjugacy class of a fixed group, in
the canonical class order.  Every class function built here is a
(virtual) character of a Weyl group, so its values are rational
integers, and a value is a Python int.  Induction of a linear centralizer
character to the whole group sums character values by the class each
element of H = C_G(w) fuses into:

    Ind(g) = |C_G(g)| / |H| * sum of chi(h) over h in H with h ~_G g.

No element of H is built, not even for a central w, where H = G: H is a
direct product of wreath products, and centralizers.class_sums fuses the
class tallies of their families, valued by chi, into the sum of chi over
the elements of H in each class of G, and counts the elements summed.
Each class's sum is divided by |H| once; a count other than |H| or a
value that is not an integer is an internal error (AssertionError).
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub
from typing import TYPE_CHECKING

from .centralizers import class_sums
from .groups import GroupDescriptor, class_index, conjugacy_classes, sign_character
from .partitions import SignedPartition

if TYPE_CHECKING:  # for the annotation only: characters is not loaded here
    from .characters import LinearCharacterSpec

__all__ = [
    "ClassFunction",
    "regular_character",
    "trivial_character",
    "sign_class_function",
    "induce_from_centralizer",
    "inner_product",
]


class ClassFunction(namedtuple("ClassFunction", "group values")):
    """One int per class of group.  + and - are pointwise and f[k] is the
    value at class k, in place of the tuple's own + (concatenation) and []
    (item access); == compares the group and the values."""

    __slots__ = ()

    def __new__(cls, group: GroupDescriptor, values: tuple[int, ...]):
        if len(values) != len(conjugacy_classes(group)):
            raise ValueError("one value per conjugacy class required")
        return super().__new__(cls, group, values)

    def _require_same_group(self, other):
        if self.group != other.group:
            raise ValueError("class functions live on different groups")

    def __add__(self, other) -> "ClassFunction":
        self._require_same_group(other)
        return ClassFunction(self.group, tuple(map(add, self.values, other.values)))

    def __sub__(self, other) -> "ClassFunction":
        self._require_same_group(other)
        return ClassFunction(self.group, tuple(map(sub, self.values, other.values)))

    def discrepancies(self, other):
        """Indices and value pairs where the two functions differ."""
        self._require_same_group(other)
        return [
            (k, a, b)
            for k, (a, b) in enumerate(zip(self.values, other.values))
            if a != b
        ]

    def __getitem__(self, k) -> int:
        return self.values[k]


def zero_function(G) -> ClassFunction:
    return ClassFunction(G, (0,) * len(conjugacy_classes(G)))


def regular_character(G) -> ClassFunction:
    values = [0] * len(conjugacy_classes(G))
    identity = SignedPartition((), (1,) * G.degree)
    values[class_index(G)[(identity, None)]] = G.order
    return ClassFunction(G, tuple(values))


def trivial_character(G) -> ClassFunction:
    return ClassFunction(G, (1,) * len(conjugacy_classes(G)))


def sign_class_function(G) -> ClassFunction:
    return ClassFunction(
        G, tuple(sign_character(G, cls.label) for cls in conjugacy_classes(G))
    )


def induce_from_centralizer(
    G: GroupDescriptor, chi: LinearCharacterSpec
) -> ClassFunction:
    """Induce a linear character of C_G(w) to G by fusion of class tallies
    (centralizers.class_sums)."""
    if chi.group != G:
        raise ValueError(f"character lives on {chi.group}, not {G}")
    classes = conjugacy_classes(G)
    order_h = classes[class_index(G)[(chi.label, chi.tag)]].centralizer_order
    sums, tallied = class_sums(G, chi.label, chi.tag, chi.values)
    if tallied != order_h:
        raise AssertionError(
            f"tallied {tallied} elements, expected centralizer order {order_h}"
        )

    values = [0] * len(classes)
    for k, value in sums.items():
        total = classes[k].centralizer_order * value
        values[k], rest = divmod(total, order_h)
        if rest:
            raise AssertionError(f"non-integral class function value {total}/{order_h}")
    return ClassFunction(G, tuple(values))


def inner_product(f: ClassFunction, g: ClassFunction):
    """(1/|G|) sum over classes of size * f * conj(g), a Fraction; the
    values are rational integers, so conj is the identity.  Only failure
    triage calls it, so fractions is imported here and not at start-up."""
    from fractions import Fraction

    f._require_same_group(g)
    total = sum(
        cls.size * a * b
        for cls, a, b in zip(conjugacy_classes(f.group), f.values, g.values)
    )
    return Fraction(total, f.group.order)
