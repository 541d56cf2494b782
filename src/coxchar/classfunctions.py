"""Class functions and induction from centralizers.

A ClassFunction holds one value per conjugacy class of a fixed group, in
the canonical class order.  Every class function built here is a
(virtual) character of a Weyl group, so its values are rational
integers, and a value is a Python int.  Induction of a linear centralizer
character to the whole group sums character values by the class each
element of H = C_G(w) fuses into:

    Ind(g) = |C_G(g)| / |H| * sum of chi(h) over h in H with h ~_G g.

No element of H is built, not even for a central w, where H = G: H is a
direct product of wreath products, one per family of equal blocks, and
the class tallies of the families, each valued by chi's triple on it
(centralizers.centralizer_tallies), map a cycle-type code to the sum of
chi over the elements of that code, a rational integer, and to their
number.  They are convolved on the code, which adds over families while
values and counts multiply, and leads, with the D split-side digit,
straight to a class (groups.code_index); in type D the code of an odd
element (an odd number of negative cycles) names no class, and the
element is dropped.  Each class sums the values of its codes, both D
side entries of a class that does not split included, and is divided by
|H| once; a count other than |H| or a value that is not an integer is an
internal error (AssertionError).
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .centralizers import centralizer_tallies, side_unit
from .groups import (
    GroupDescriptor,
    class_index,
    code_index,
    conjugacy_classes,
    sign_character,
)
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
    """One int per class of group.  +, - and * are pointwise and f[k] is
    the value at class k, in place of the tuple's own + (concatenation),
    * (repetition) and [] (item access)."""

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
        return ClassFunction(
            self.group, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other) -> "ClassFunction":
        self._require_same_group(other)
        return ClassFunction(
            self.group, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other) -> "ClassFunction":
        """Pointwise product, e.g. multiplication by a linear character."""
        self._require_same_group(other)
        return ClassFunction(
            self.group, tuple(a * b for a, b in zip(self.values, other.values))
        )

    def equals(self, other) -> bool:
        self._require_same_group(other)
        return self.values == other.values

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
    """Induce a linear character of C_G(w) to G by fusion of class tallies:
    the families' valued tallies are convolved, values and counts
    multiplying as codes add."""
    if chi.group != G:
        raise ValueError(f"character lives on {chi.group}, not {G}")
    classes = conjugacy_classes(G)
    order_h = classes[class_index(G)[(chi.label, chi.tag)]].centralizer_order

    # the '-' base class of a split pair is t w_mu t, and Ind of chi^t is
    # Ind of chi conjugated by the odd t: starting one side unit up swaps
    # the sides
    unit = side_unit(G.degree)
    tally = {unit if chi.tag == "-" else 0: (1, 1)}
    for family in centralizer_tallies(chi.label, G.family, chi.values):
        old = list(tally.items())
        tally = {}
        for code_b, (value_b, count_b) in family.items():
            for code_a, (value_a, count_a) in old:
                value, count = tally.get(code_a + code_b, (0, 0))
                tally[code_a + code_b] = (
                    value + value_a * value_b, count + count_a * count_b
                )

    index = code_index(G)
    sums: dict = {}
    tallied = 0
    for code, (value, count) in tally.items():
        k = index.get(code % (2 * unit))
        if k is None:  # an odd element of a type-D tally
            continue
        tallied += count
        sums[k] = sums.get(k, 0) + value
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
