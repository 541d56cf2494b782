"""Class functions and induction from centralizers.

A ClassFunction holds one value per conjugacy class of a fixed group, in
the canonical class order.  Every class function built here is a
(virtual) character of a Weyl group, so its values are rational
integers, and a value is a Python int.  Induction of a linear centralizer
character to the whole group buckets character values, roots of unity,
by the class each element of H = C_G(w) fuses into (signed cycle type,
plus the split tag in type D):

    Ind(g) = |C_G(g)| / |H| * sum of chi(h) over h in H with h ~_G g.

Each bucket (root -> count) is reduced once, modulo the cyclotomic
polynomial of the roots' common order, to its integer value; a value
that is irrational or not an integer is an internal error
(AssertionError).

No element of H is built, not even for a central w, where H = G: H is a
direct product of wreath products, one per family of equal blocks, and
the weighted class tallies of the families
(centralizers.centralizer_tallies) are convolved, fusion key by
concatenation, character value by product, D parity and split side by
sum mod 2.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .centralizers import centralizer_tallies, convolve_tallies
from .characters import LinearCharacterSpec
from .cyclotomic import ONE, Root, _power_table, root_mul
from .groups import (
    GroupDescriptor,
    class_index,
    conjugacy_classes,
    sign_character,
    signed_cycle_type,
)
from .partitions import SignedPartition
from .signedperm import SignedPermutation

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
    identity = signed_cycle_type(SignedPermutation.identity(G.degree))
    values[class_index(G)[(identity, None)]] = G.order
    return ClassFunction(G, tuple(values))


def trivial_character(G) -> ClassFunction:
    return ClassFunction(G, (1,) * len(conjugacy_classes(G)))


def sign_class_function(G) -> ClassFunction:
    return ClassFunction(
        G, tuple(sign_character(G, cls.rep) for cls in conjugacy_classes(G))
    )


def _integer_value(bucket: dict[Root, int], num: int, den: int) -> int:
    """num/den * sum of count * root over the bucket, which must be an
    integer.

    The roots are written in the power basis of Q(zeta_m), m the lcm of
    their orders: the sum is rational iff only the constant coefficient
    is left.
    """
    m = 1
    for _, order in bucket:
        m = m * order // gcd(m, order)
    table = _power_table(m)
    coeffs = [0] * len(table[0])
    for (k, order), count in bucket.items():
        for i, v in enumerate(table[k * (m // order)]):
            if v:
                coeffs[i] += count * v
    if any(coeffs[1:]):
        raise AssertionError(f"irrational class function value {bucket}")
    value, rest = divmod(coeffs[0] * num, den)
    if rest:
        raise AssertionError(
            f"non-integral class function value {coeffs[0] * num}/{den}"
        )
    return value


def _combine(a, b):
    """Join (cycles, value, negatives, side) keys of disjoint families."""
    return (
        tuple(sorted(a[0] + b[0])), root_mul(a[1], b[1]), a[2] ^ b[2], a[3] ^ b[3]
    )


@lru_cache(maxsize=None)
def _label(cycles) -> SignedPartition:
    """Signed cycle type from sorted signed cycle lengths."""
    return SignedPartition(
        tuple(-c for c in reversed(cycles) if c < 0),
        tuple(c for c in reversed(cycles) if c > 0),
    )


def induce_from_centralizer(
    G: GroupDescriptor, chi: LinearCharacterSpec
) -> ClassFunction:
    """Induce a linear character of C_G(w) to G by fusion of class tallies.

    Each family's tally is valued by chi, the families are convolved, and
    in type D the odd elements are dropped (the parity of negative entries
    is only known for the whole element).
    """
    if chi.group != G:
        raise ValueError(f"character lives on {chi.group}, not {G}")
    classes = conjugacy_classes(G)
    index = class_index(G)
    base = classes[index[(chi.label, chi.tag)]]
    order_h = base.centralizer_order

    in_d = G.family == "D"
    tally = {((), ONE, 0, 0): 1}
    for negative, family in centralizer_tallies(chi.label, flips=G.family != "A"):
        valued: dict = {}
        for (cycles, summary, negatives, side), weight in family.items():
            if negative:
                value = chi.evaluate_summaries((summary,), ())
            else:
                value = chi.evaluate_summaries((), (summary,))
            # only D drops odd elements and splits classes, and only the
            # all-even positive types split: clear the bits elsewhere
            if not in_d:
                negatives = 0
            if not in_d or any(c < 0 or c % 2 for c in cycles):
                side = 0
            key = (cycles, value, negatives, side)
            valued[key] = valued.get(key, 0) + weight
        tally = convolve_tallies(tally, valued, _combine)

    buckets: dict = {}
    count = 0
    for (cycles, value, negatives, side), weight in tally.items():
        if negatives:
            continue
        count += weight
        key = (_label(cycles), None)
        if key not in index:
            # a split class; the '-' base class is t w_mu t, and Ind of
            # chi^t is Ind of chi conjugated by the odd t: sides swap
            key = (key[0], "-" if side ^ (chi.tag == "-") else "+")
        bucket = buckets.setdefault(key, {})
        bucket[value] = bucket.get(value, 0) + weight
    if count != order_h:
        raise AssertionError(
            f"tallied {count} elements, expected centralizer order {order_h}"
        )

    values = [0] * len(classes)
    for key, bucket in buckets.items():
        k = index[key]
        values[k] = _integer_value(bucket, classes[k].centralizer_order, order_h)
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
