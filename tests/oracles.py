"""Brute-force oracles for the test suite.

Each computes what a production path computes, the slow way, so that a
test can compare the two: exact sums of roots of unity (`Cyc`), induction
by the definition over the whole group (`induce_direct`), the alpha
character as a determinant on a fixed space (`alpha_on_centralizer`), and
the intersection lattice closed under hyperplane meets (`closure_by_meets`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

from coxchar.characters import LinearCharacterSpec, evaluate
from coxchar.classfunctions import ClassFunction
from coxchar.cyclotomic import ONE, Root, _power_table, root_conj, root_mul
from coxchar.groups import (
    BudgetError,
    GroupDescriptor,
    Hyperplane,
    conjugacy_classes,
    group_elements,
    hyperplane_set,
)
from coxchar.linalg import det
from coxchar.shapes import Shape, is_cuspidal, shape_fix_space
from coxchar.signedperm import SignedPermutation


class Cyc:
    """A finite rational combination of roots of unity, exact."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Root, Fraction] = {}
        if terms:
            for r, c in terms.items():
                c = Fraction(c)
                if c:
                    data[r] = c
        self.terms = data

    @staticmethod
    def zero() -> "Cyc":
        return Cyc()

    @staticmethod
    def one() -> "Cyc":
        return Cyc({ONE: Fraction(1)})

    @staticmethod
    def from_root(r: Root, coeff=1) -> "Cyc":
        return Cyc({r: Fraction(coeff)})

    @staticmethod
    def from_rational(q) -> "Cyc":
        return Cyc({ONE: Fraction(q)})

    def __add__(self, other: "Cyc") -> "Cyc":
        data = dict(self.terms)
        for r, c in other.terms.items():
            s = data.get(r, Fraction(0)) + c
            if s:
                data[r] = s
            else:
                data.pop(r, None)
        out = Cyc()
        out.terms = data
        return out

    def __neg__(self) -> "Cyc":
        out = Cyc()
        out.terms = {r: -c for r, c in self.terms.items()}
        return out

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __mul__(self, other: "Cyc") -> "Cyc":
        data: dict[Root, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                r = root_mul(r1, r2)
                s = data.get(r, Fraction(0)) + c1 * c2
                if s:
                    data[r] = s
                else:
                    data.pop(r, None)
        out = Cyc()
        out.terms = data
        return out

    def scale(self, q) -> "Cyc":
        q = Fraction(q)
        out = Cyc()
        if q:
            out.terms = {r: c * q for r, c in self.terms.items()}
        return out

    def conj(self) -> "Cyc":
        out = Cyc()
        out.terms = {root_conj(r): c for r, c in self.terms.items()}
        return out

    # -- canonical reduction -------------------------------------------------

    def _reduced(self):
        """(m, coefficient tuple mod Phi_m) with m = lcm of term orders."""
        m = 1
        for _, order in self.terms:
            m = m * order // gcd(m, order)
        table = _power_table(m)
        deg = len(table[0])
        coeffs = [Fraction(0)] * deg
        for (k, order), c in self.terms.items():
            for i, v in enumerate(table[k * (m // order)]):
                if v:
                    coeffs[i] += c * v
        return m, coeffs

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        _, coeffs = self._reduced()
        return all(c == 0 for c in coeffs)

    def as_rational(self):
        """The value as a Fraction, or None if irrational."""
        if not self.terms:
            return Fraction(0)
        _, coeffs = self._reduced()
        if any(c != 0 for c in coeffs[1:]):
            return None
        return coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __str__(self) -> str:
        q = self.as_rational()
        if q is not None:
            return str(q)
        parts = []
        for (k, m), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0])):
            base = "1" if m == 1 else (f"z{m}" if k == 1 else f"z{m}^{k}")
            if c == 1 and m > 1:
                parts.append(base)
            elif c == -1 and m > 1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{c}*{base}" if m > 1 else f"{c}")
        out = "+".join(parts).replace("+-", "-")
        return out

    def __repr__(self) -> str:
        return f"Cyc({self})"


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
        value = total.scale(Fraction(1, order_h)).as_rational()
        if value is None or value.denominator != 1:
            raise AssertionError(f"non-integral induced value {total}")
        values.append(value.numerator)
    return ClassFunction(G, tuple(values))


def alpha_on_centralizer(G: GroupDescriptor, shape: Shape, w: SignedPermutation):
    """Determinant on Fix(W_L) as a function on C_W(w), computed exactly.

    By linear algebra on the shape's fixed space, the oracle of
    characters.alpha_char.  Requires w cuspidal in the shape's
    parabolic, so Fix(W_L) = Fix(w).
    """
    if not is_cuspidal(G, w, shape):
        raise ValueError(f"{w} is not cuspidal in shape {shape}")
    space = shape_fix_space(G, shape)

    def apply(g: SignedPermutation, vector):
        out = [Fraction(0)] * g.n
        for i, x in enumerate(vector, start=1):
            image = g(i)
            out[abs(image) - 1] = x if image > 0 else -x
        return out

    def value(g: SignedPermutation) -> int:
        rows = []
        for b in space.basis:
            coeffs = space.coordinates_of(apply(g, b))
            if coeffs is None:
                raise ValueError(f"{g} does not stabilize the fixed space")
            rows.append(coeffs)
        if not rows:
            return 1
        d = det(rows)
        if d not in (1, -1):
            raise ValueError(f"non-unimodular action: det = {d}")
        return int(d)

    return value


def _sides(point, h: Hyperplane) -> tuple[int, int]:
    """x_i and rel * x_j at the point (0 for a coordinate hyperplane):
    equal exactly when the hyperplane contains the point's flat."""
    return point[h.i - 1], (h.rel * point[h.j - 1] if h.j else 0)


def _meet(point, a: int, b: int) -> tuple[int, ...]:
    """Generic point of the flat cut out by a hyperplane with sides a != b."""
    if a == 0 or b == 0 or a == -b:
        gone = (abs(a), abs(b))
        return tuple([0 if abs(x) in gone else x for x in point])
    # the block with the larger label joins the other, whose label is its
    # smallest index + 1, so the point stays canonical; x // old is +-1
    old, keep = (a, b) if abs(a) > abs(b) else (b, a)
    top = abs(old)
    return tuple([x // old * keep if abs(x) == top else x for x in point])


def _incidence(point, hyperplanes) -> int:
    bits = 0
    for k, h in enumerate(hyperplanes):
        a, b = _sides(point, h)
        if a == b:
            bits |= 1 << k
    return bits


def shape_of_point(G: GroupDescriptor, point) -> Shape:
    """The shape of the flat's orbit: block sizes, and in type D the sign
    parity when there is no zero block and every block is even."""
    sizes = Counter(abs(x) for x in point if x)
    lam = tuple(sorted(sizes.values(), reverse=True))
    if G.family == "D" and 0 not in point and all(p % 2 == 0 for p in lam):
        return Shape(lam, "-" if sum(x < 0 for x in point) % 2 else "+")
    return Shape(lam)


def closure_by_meets(G: GroupDescriptor):
    """(point, bits, dim, shape) of every flat, by codimension from the
    ambient space: each flat of the frontier meets every hyperplane not
    through it, and new canonical generic points form the next frontier."""
    n = G.degree
    hyperplanes = hyperplane_set(G)
    ambient = tuple(range(1, n + 1))
    flats = [(ambient, 0, n)]
    seen = {ambient}
    frontier = [flats[0]]
    while frontier:
        next_frontier = []
        for point, bits, _ in frontier:
            for k, h in enumerate(hyperplanes):
                if bits >> k & 1:
                    continue
                new = _meet(point, *_sides(point, h))
                if new in seen:
                    continue
                seen.add(new)
                dim = len({abs(x) for x in new if x})
                flat = (new, _incidence(new, hyperplanes), dim)
                flats.append(flat)
                next_frontier.append(flat)
        frontier = next_frontier
    return [(point, bits, dim, shape_of_point(G, point)) for point, bits, dim in flats]
