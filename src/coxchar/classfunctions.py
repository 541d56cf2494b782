"""Class functions and induction from centralizers.

A ClassFunction holds one value per conjugacy class of a fixed group, in
the canonical class order.  Every class function built here is a
(virtual) character of a Weyl group, so its values are rational
integers, and a value is a Python int.  Induction of a linear centralizer
character to the whole group buckets character values, roots of unity,
by the class each element of H = C_G(w) fuses into:

    Ind(g) = |C_G(g)| / |H| * sum of chi(h) over h in H with h ~_G g.

No element of H is built, not even for a central w, where H = G: H is a
direct product of wreath products, one per family of equal blocks, and
the class tallies of the families, each valued by chi's triple on it
(centralizers.centralizer_tallies), are convolved on keys (code, e) of
two ints.  The cycle-type code adds over families and leads, with the D
split-side digit, straight to a class (groups.code_index); in type D the
code of an odd element (an odd number of negative cycles) names no class,
and the element is dropped.  The value zeta_M^e, M the lcm of 2L over the
families of L-cycles of w (a family's tally holds exponents of
zeta_2L = zeta_M^(M/2L)), multiplies as e adds mod M.  Each class's
bucket (e -> count) is a union of Galois orbits of roots, since Weyl
group classes are rational, and is read once as the sum over its orbits
of count * mu(order); a bucket that is not such a union (an irrational
value) or a value that is not an integer is an internal error
(AssertionError).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from typing import TYPE_CHECKING

from .centralizers import centralizer_tallies, side_unit
from .cyclotomic import totient_moebius
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


def _integer_value(bucket: dict[int, int], m: int, num: int, den: int) -> int:
    """num/den * sum of count * zeta_m^e over the bucket (e -> count),
    which must be an integer.

    Weyl group classes are rational: g^a ~ g for every a prime to the
    order of g.  So for a prime to |H| the power map h -> h^a permutes the
    elements of H that fuse into one class, and it sends chi(h) = zeta_m^e
    to zeta_m^(ae).  Every bucket is therefore a union of whole Galois
    orbits: the exponents of each order d = m / gcd(e, m) all occur, with
    one count c_d, and the primitive d-th roots sum to mu(d), so the sum
    is the sum of c_d * mu(d).  The exponents are grouped by (d, count),
    and each group must hold all phi(d) exponents of its order; a bucket
    that is not a union of orbits is irrational, or not a value of any
    induced linear character.
    """
    orbits: dict = {}
    for e, count in bucket.items():
        key = (m // gcd(e, m), count)
        orbits[key] = orbits.get(key, 0) + 1
    total = 0
    for (d, count), size in orbits.items():
        phi, mu = totient_moebius(d)
        if size != phi:
            raise AssertionError(
                f"irrational class function value {bucket} (exponents mod {m})"
            )
        total += count * mu
    value, rest = divmod(total * num, den)
    if rest:
        raise AssertionError(
            f"non-integral class function value {total * num}/{den}"
        )
    return value


def induce_from_centralizer(
    G: GroupDescriptor, chi: LinearCharacterSpec
) -> ClassFunction:
    """Induce a linear character of C_G(w) to G by fusion of class tallies.

    Each family's tally, valued by chi's triple on it, is read at the
    common order M and the families are convolved.
    """
    if chi.group != G:
        raise ValueError(f"character lives on {chi.group}, not {G}")
    classes = conjugacy_classes(G)
    order_h = classes[class_index(G)[(chi.label, chi.tag)]].centralizer_order

    m = lcm(*(2 * abs(key) for key, _ in chi.label.families))
    # the '-' base class of a split pair is t w_mu t, and Ind of chi^t is
    # Ind of chi conjugated by the odd t: starting one side unit up swaps
    # the sides
    unit = side_unit(G.degree)
    tally = {(unit if chi.tag == "-" else 0, 0): 1}
    for (signed_length, _), family in zip(
        chi.label.families, centralizer_tallies(chi.label, G.family, chi.values)
    ):
        scale = m // (2 * abs(signed_length))
        old = list(tally.items())
        tally = {}
        for (code_b, e_b), weight_b in family.items():
            e_b *= scale
            for (code_a, e_a), weight_a in old:
                key = (code_a + code_b, (e_a + e_b) % m)
                tally[key] = tally.get(key, 0) + weight_a * weight_b

    index = code_index(G)
    buckets: dict = {}
    count = 0
    for (code, e), weight in tally.items():
        k = index.get(code % (2 * unit))
        if k is None:  # an odd element of a type-D tally
            continue
        count += weight
        bucket = buckets.setdefault(k, {})
        bucket[e] = bucket.get(e, 0) + weight
    if count != order_h:
        raise AssertionError(
            f"tallied {count} elements, expected centralizer order {order_h}"
        )

    values = [0] * len(classes)
    for k, bucket in buckets.items():
        values[k] = _integer_value(bucket, m, classes[k].centralizer_order, order_h)
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
