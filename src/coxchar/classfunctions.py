"""Class functions and induction from centralizers.

A ClassFunction holds one exact cyclotomic value per conjugacy class of a
fixed group, in the canonical class order.  Induction of a linear
centralizer character to the whole group buckets character values by the
class each element of H = C_G(w) fuses into (signed cycle type, plus the
split tag in type D):

    Ind(g) = |C_G(g)| / |H| * sum of chi(h) over h in H with h ~_G g.

No element of H is built: H is a direct product of wreath products, one
per family of equal blocks, and the weighted class tallies of the families
(centralizers.centralizer_tallies) are convolved, fusion key by
concatenation, character value by product, D parity and split side by
sum mod 2.  A quadratic scan over the whole group implements the same
functional as an independent oracle for small groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .centralizers import centralizer_tallies, convolve_tallies
from .characters import LinearCharacterSpec, evaluate
from .cyclotomic import ONE, Cyc, root_mul
from .groups import (
    BudgetError,
    GroupDescriptor,
    class_index,
    conjugacy_classes,
    group_elements,
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
    "class_function_of_spec",
    "induce_from_centralizer",
    "induce_direct",
    "inner_product",
]


@dataclass(frozen=True)
class ClassFunction:
    group: GroupDescriptor
    values: tuple[Cyc, ...]

    def __post_init__(self):
        if len(self.values) != len(conjugacy_classes(self.group)):
            raise ValueError("one value per conjugacy class required")

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

    def scale(self, q) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v.scale(q) for v in self.values))

    def equals(self, other) -> bool:
        self._require_same_group(other)
        return all((a - b).is_zero() for a, b in zip(self.values, other.values))

    def discrepancies(self, other):
        """Indices and value pairs where the two functions differ."""
        self._require_same_group(other)
        out = []
        for k, (a, b) in enumerate(zip(self.values, other.values)):
            if not (a - b).is_zero():
                out.append((k, a, b))
        return out

    def __getitem__(self, k) -> Cyc:
        return self.values[k]


def zero_function(G) -> ClassFunction:
    return ClassFunction(G, tuple(Cyc.zero() for _ in conjugacy_classes(G)))


def regular_character(G) -> ClassFunction:
    values = [Cyc.zero() for _ in conjugacy_classes(G)]
    identity = signed_cycle_type(SignedPermutation.identity(G.degree))
    values[class_index(G)[(identity, None)]] = Cyc.from_rational(G.order)
    return ClassFunction(G, tuple(values))


def trivial_character(G) -> ClassFunction:
    return ClassFunction(G, tuple(Cyc.one() for _ in conjugacy_classes(G)))


def sign_class_function(G) -> ClassFunction:
    return ClassFunction(
        G,
        tuple(
            Cyc.from_rational(sign_character(G, cls.rep))
            for cls in conjugacy_classes(G)
        ),
    )


def class_function_of_spec(G, spec: LinearCharacterSpec) -> ClassFunction:
    """Values of a centralizer character at the class representatives.

    Only valid when the centralizer is the whole group (central base
    element); this is the induced character in that degenerate case.
    """
    return ClassFunction(
        G,
        tuple(
            Cyc.from_root(evaluate(spec, cls.rep)) for cls in conjugacy_classes(G)
        ),
    )


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
    if order_h == G.order:
        return class_function_of_spec(G, chi)

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

    values = []
    for cls in classes:
        bucket = buckets.get(cls.key)
        if not bucket:
            values.append(Cyc.zero())
            continue
        scale = Fraction(cls.centralizer_order, order_h)
        values.append(Cyc({r: scale * c for r, c in bucket.items()}))
    return ClassFunction(G, tuple(values))


@lru_cache(maxsize=8)
def _conjugate_multiset(G: GroupDescriptor):
    """Per class of G: the multiset {x^{-1} g x : x in G} as an images->count
    map.  One literal |G|-scan per class, shared across oracle calls."""
    elements = list(group_elements(G))
    tables = []
    for cls in conjugacy_classes(G):
        g = cls.rep
        counts: dict[tuple, int] = {}
        for x in elements:
            y = g.conjugate(x.inverse())
            counts[y.images] = counts.get(y.images, 0) + 1
        tables.append(counts)
    return tuple(tables)


def induce_direct(G: GroupDescriptor, chi: LinearCharacterSpec, budget=5000):
    """Induction by the definition, as an independent oracle:

        Ind(g) = (1/|H|) sum over x in G with x^{-1} g x in H
                 of chi(x^{-1} g x),

    membership in H = C_G(w) decided by commutation, no fusion keys."""
    if budget is not None and G.order > budget:
        raise BudgetError(f"|{G}| = {G.order} exceeds the oracle budget {budget}")
    w = chi.base_rep()
    order_h = sum(
        1 for x in group_elements(G) if x.compose(w) == w.compose(x)
    )
    values = []
    for counts in _conjugate_multiset(G):
        total = Cyc.zero()
        for images, count in counts.items():
            y = SignedPermutation(images)
            if y.compose(w) == w.compose(y):
                total = total + Cyc.from_root(evaluate(chi, y)).scale(count)
        values.append(total)
    return ClassFunction(
        G, tuple(v.scale(Fraction(1, order_h)) for v in values)
    )


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyc:
    """(1/|G|) sum over classes of size * f * conj(g)."""
    f._require_same_group(g)
    total = Cyc.zero()
    for cls, a, b in zip(conjugacy_classes(f.group), f.values, g.values):
        total = total + (a * b.conj()).scale(cls.size)
    return total.scale(Fraction(1, f.group.order))
