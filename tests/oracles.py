"""Brute-force oracles for the test suite.

Each computes what a production path computes, the slow way, so that a
test can compare the two: exact sums of roots of unity (`Cyc`), reduced
modulo the cyclotomic polynomial through the power table x^k mod Phi_m
(`cyclotomic_polynomial`, `_power_table`) where the library sums Galois
orbits, the Moebius function by trial division (`_number_mu`), the sum
of a bucket of roots that is a union of whole Galois orbits, read orbit
by orbit (`orbit_sum`, where the library takes each orbit's Ramanujan
sum in closed form), induction
by the definition over the whole group (`induce_direct`) and on the
root-keyed class tallies the library used before its keys were integers
(`induce_by_root_tallies`, one family's tally summed over the cycle types
of the block permutation in `_root_family_tally`, where the library
recurs on the block cycle through the first block), the class sums of a
centralizer from one tally of all its families, each code then mapped to
its class (`class_sums_two_pass`, where the library sums its largest family
straight into the classes), the alpha
character as a determinant on a fixed space (`alpha_on_centralizer`), and
the intersection lattice closed under hyperplane meets (`closure_by_meets`),
the w-stable flats by testing each flat's hyperplanes
(`stable_flats_by_bits`, on the incidence bits `flat_bits` reads off each
point) with the interval type of each read off its point (`interval_type`),
and the same flats built one by one from the cycles of w, each with its
interval type (`stable_points`), which the library only counts.  The
library counts them with mu_w folded into the placement; the count by
interval type, each type valued on its own (`_stable_structures`,
`_interval_mu`, summed by shape in `shape_sums_by_interval_type`), is
its oracle, and the Poincare rows it sums to are also read off the
Frobenius point count of the complement (`point_count_poincare`).
Beside them live the element-level objects no check uses, since the
library works on class labels alone: every group element
(`group_elements`, `contains`, `coxeter_generators`), the class of an
element (`signed_cycle_type`, `d_split_side`, `class_key`, `class_of`)
and its sign and reflection length (`element_sign`,
`element_reflection_length`), which the label formulas of `groups`
replace, fixed spaces as rational subspaces
(`fixed_space`, `shape_fix_space`), standard parabolics
(`parabolic_generators`, `is_cuspidal`), class representatives
(`w_mu`, `class_rep`), the named generators and the element stream of a
centralizer (`centralizer_generators`, `centralizer_elements`), the
coordinates of a centralizer element (`coordinates`, `reassemble`), and
a linear character evaluated element by element (`evaluate`, the
product of its families' values in `evaluate_summaries`, each read off
the family's summary by the oracles' own copy of the per-family rule,
`summary_value`, on roots of unity as normalized pairs: `Root`, `root`,
`root_mul`, `root_pow`), also
at every class representative when the base is central
(`class_function_of_spec`), which induction computes from class tallies
and per-family exponents, and the type-B and type-D rules of phi_w
written out on their own (`phi_B`, `psi`).
Last come the label helpers only tests use (`mu_bar`,
`parse_signed_partition`, `root_conj`, `reflection_exponents`).
The oracles import no underscore-prefixed name of the library: z_lam
(`_z_lam`), the type-D split rule (`_splits`), the label parser and a
shape's sizes are their own copies, so that a fault in one of them
cannot move an oracle together with the code it checks.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, permutations, product
from math import factorial, gcd, prod

from coxchar.centralizers import centralizer_tallies, code_index, side_unit
from coxchar.characters import LinearCharacterSpec
from coxchar.classfunctions import ClassFunction
from coxchar.groups import BudgetError, GroupDescriptor, class_index, conjugacy_classes
from coxchar.lattice import Hyperplane, hyperplane_set
from coxchar.linalg import Subspace, det, kernel
from coxchar.partitions import SignedPartition, partitions
from coxchar.shapes import Shape
from signedperm import SignedPermutation


# -- roots of unity --------------------------------------------------------------
#
# A root of unity is a pair (k, m) standing for exp(2*pi*i*k/m), kept
# normalized with gcd(k, m) = 1, so m is its true order.  The library
# forms no root: it sums a character's values over each Galois orbit of
# twists in closed form (cyclotomic.ramanujan).

Root = tuple[int, int]

ONE: Root = (0, 1)
MINUS_ONE: Root = (1, 2)


def root(k: int, m: int) -> Root:
    """The root of unity exp(2*pi*i*k/m), normalized."""
    if m <= 0:
        raise ValueError("order must be positive")
    k %= m
    g = gcd(k, m)
    return (k // g, m // g)


def root_mul(a: Root, b: Root) -> Root:
    m = a[1] * b[1] // gcd(a[1], b[1])
    return root(a[0] * (m // a[1]) + b[0] * (m // b[1]), m)


def root_pow(a: Root, k: int) -> Root:
    return root(a[0] * k, a[1])


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending."""
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_m for 0 <= k < m, as integer coefficient rows."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    row[0] = 1
    rows.append(tuple(row))
    for _ in range(1, m):
        shifted = [0] + list(rows[-1])
        lead = shifted.pop()
        if lead:
            shifted = [a - lead * b for a, b in zip(shifted, phi[:deg])]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _number_mu(n: int) -> int:
    """The number-theoretic Moebius function, by trial division."""
    primes = [
        p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))
    ]
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def orbit_sum(bucket: dict[int, int], m: int) -> int:
    """The sum of count * zeta_m^e over the bucket (e -> count), which must
    be a union of whole Galois orbits: the exponents of each order
    d = m / gcd(e, m) all occur, with one count c_d, so the sum is the
    sum of c_d * mu(d).  The exponents are grouped by (d, count), and each
    group must hold all phi(d) exponents of its order; a bucket that is
    not such a union is irrational, or rational by cancellation alone,
    and raises AssertionError.  The reading of a family's class sums by
    exponent buckets, which cyclotomic.ramanujan replaces.
    """
    orbits: dict = {}
    for e, count in bucket.items():
        key = (m // gcd(e, m), count)
        orbits[key] = orbits.get(key, 0) + 1
    total = 0
    for (d, count), size in orbits.items():
        if size != sum(gcd(k, d) == 1 for k in range(d)):
            raise AssertionError(f"irrational sum {bucket} (exponents mod {m})")
        total += count * _number_mu(d)
    return total


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


# -- group elements and fixed spaces -------------------------------------------

DEFAULT_ELEMENT_BUDGET = 2**8 * factorial(8)


def all_signed_permutations(n: int):
    """Iterate over all 2^n n! signed permutations of n."""
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


def group_elements(G: GroupDescriptor, budget=DEFAULT_ELEMENT_BUDGET):
    """Iterate all elements; for brute-force checks on small groups."""
    if budget is not None and G.order > budget:
        raise BudgetError(f"|{G}| = {G.order} exceeds the element budget {budget}")
    for w in all_signed_permutations(G.degree):
        if contains(G, w):
            yield w


def contains(G: GroupDescriptor, w: SignedPermutation) -> bool:
    if w.n != G.degree:
        return False
    if G.family == "A":
        return w.is_positive()
    if G.family == "D":
        return w.is_even_signed()
    return True


def coxeter_generators(G: GroupDescriptor) -> tuple[SignedPermutation, ...]:
    n = G.degree
    trans = [SignedPermutation.transposition(n, i) for i in range(1, n)]
    if G.family == "A":
        return tuple(trans)
    if G.family == "B":
        return (SignedPermutation.flip(n),) + tuple(trans)
    return (SignedPermutation.neg_transposition(n),) + tuple(trans)


# -- the class of an element ----------------------------------------------------


def _splits(mu: SignedPartition) -> bool:
    """A type-D class splits in two when all its cycles are positive and
    of even length."""
    return not mu.neg and not any(p % 2 for p in mu.pos)


def signed_cycle_type(w: SignedPermutation) -> SignedPartition:
    neg, pos = [], []
    for support, sign in w.signed_cycles():
        (neg if sign < 0 else pos).append(len(support))
    return SignedPartition(tuple(sorted(neg)), tuple(sorted(pos, reverse=True)))


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
    if not _splits(mu):
        raise ValueError(f"class {mu} does not split")
    if not w.is_even_signed():
        raise ValueError("element is not even-signed")
    side = sum(cycle_side_parity(w, support[0]) for support, _ in w.signed_cycles())
    return "-" if side % 2 else "+"


def class_key(w: SignedPermutation, family: str):
    """Fusion key (label, tag) of the class of w in its group."""
    mu = signed_cycle_type(w)
    if family == "D" and _splits(mu):
        return (mu, d_split_side(w))
    return (mu, None)


def class_of(G: GroupDescriptor, w: SignedPermutation) -> int:
    """Index of the class of w in conjugacy_classes(G)."""
    return class_index(G)[class_key(w, G.family)]


def class_counts_by_parts(family: str, top: int) -> list[int]:
    """The class counts of the groups of one family by degree n = 0..top
    (entries below degree 4 meaningless in type D), by the O(top^2)
    recurrence over part sizes: one pass gives p and q(k), the partitions
    of k counted with the sign (-1)^(number of parts), as the products of
    1 / (1 - x^j) and 1 / (1 + x^j); (p(k) + q(k)) / 2 of the partitions
    of k have an even number of parts.  The reference of
    groups.class_count, which takes them from Euler's pentagonal theorem."""
    p = [1] + [0] * top
    q = [1] + [0] * top
    for part in range(1, top + 1):
        for m in range(part, top + 1):
            p[m] += p[m - part]
            q[m] -= q[m - part]
    if family == "A":
        return p
    even = p if family == "B" else [(a + b) // 2 for a, b in zip(p, q)]
    return [
        sum(even[k] * p[n - k] for k in range(n + 1))
        + (p[n // 2] if family == "D" and n % 2 == 0 else 0)
        for n in range(top + 1)
    ]


def element_reflection_length(G: GroupDescriptor, w: SignedPermutation) -> int:
    """Codimension of the fixed space of w in the reflection representation,
    from its positive cycles."""
    positive = sum(1 for _, sign in w.signed_cycles() if sign > 0)
    return G.degree - positive


def element_sign(G: GroupDescriptor, w: SignedPermutation) -> int:
    """Determinant of w on the reflection representation: the sign of |w|
    as a permutation, times the sign of its entries outside type A."""
    cycles = w.signed_cycles()
    perm_sign = -1 if (w.n - len(cycles)) % 2 else 1
    if G.family == "A":
        return perm_sign
    return perm_sign * (-1 if w.neg_count() % 2 else 1)


def matrix_rows(w: SignedPermutation) -> list[list[int]]:
    """Matrix of w on Q^n, rows indexed by output coordinate."""
    rows = [[0] * w.n for _ in range(w.n)]
    for i, v in enumerate(w.images):
        rows[abs(v) - 1][i] = 1 if v > 0 else -1
    return rows


def fixed_space_ambient(w: SignedPermutation) -> Subspace:
    """Fix(w) in Q^n: spanned by the indicator vectors of positive cycles."""
    rows = []
    for support, sign in w.signed_cycles():
        if sign > 0:
            rows.append(tuple(1 if i + 1 in support else 0 for i in range(w.n)))
    return Subspace(w.n, tuple(rows))


def fixed_space(G: GroupDescriptor, w: SignedPermutation) -> Subspace:
    """Fix(w) in the reflection representation (sum-zero subspace for A)."""
    if G.family != "A":
        return fixed_space_ambient(w)
    rows = [[a - b for a, b in zip(row, m_row)] for row, m_row in
            zip(matrix_rows(w), Subspace.full(w.n).basis)]
    rows.append([1] * w.n)
    return kernel(w.n, rows)


# -- standard parabolic subgroups ----------------------------------------------


def _young_generators(n, lam, offset):
    gens = []
    u = offset
    for part in lam:
        gens.extend(
            SignedPermutation.transposition(n, i) for i in range(u + 1, u + part)
        )
        u += part
    return gens


def parabolic_generators(G: GroupDescriptor, shape: Shape):
    """Reflections generating the standard parabolic of this shape."""
    n, m = G.degree, sum(shape.lam)
    head = n - m
    gens: list[SignedPermutation] = []
    if G.family == "B" and head:
        gens.append(SignedPermutation.flip(n))
        gens.extend(SignedPermutation.transposition(n, i) for i in range(1, head))
    elif G.family == "D" and head:
        gens.append(SignedPermutation.neg_transposition(n))
        gens.extend(SignedPermutation.transposition(n, i) for i in range(1, head))
    young = _young_generators(n, shape.lam, head)
    if shape.tag == "-":
        t = SignedPermutation.flip(n)
        young = [g.conjugate(t) for g in young]
    return tuple(gens + young)


def shape_fix_space(G: GroupDescriptor, shape: Shape) -> Subspace:
    """Fixed space of the shape's standard parabolic in Q^n."""
    n, m = G.degree, sum(shape.lam)
    rows = []
    u = n - m
    for part in shape.lam:
        row = [0] * n
        for c in range(u, u + part):
            row[c] = 1
        if shape.tag == "-" and u == 0:
            row[0] = -1
        rows.append(row)
        u += part
    return Subspace.from_vectors(n, rows)


def _member_of_parabolic(G, w, shape) -> bool:
    n, m = G.degree, sum(shape.lam)
    head = n - m
    v = w
    if shape.tag == "-":
        v = w.conjugate(SignedPermutation.flip(n))
    if any(abs(v(i)) > head for i in range(1, head + 1)):
        return False
    u = head
    for part in shape.lam:
        for i in range(u + 1, u + part + 1):
            if not u < v(i) <= u + part:
                return False
        u += part
    if G.family == "A":
        return v.is_positive()
    if G.family == "D":
        return v.is_even_signed()
    return True


def is_cuspidal(G: GroupDescriptor, w: SignedPermutation, shape: Shape) -> bool:
    """True when w lies in no proper parabolic of the shape's parabolic."""
    if not _member_of_parabolic(G, w, shape):
        raise ValueError(f"{w} is not in the parabolic of shape {shape}")
    return fixed_space_ambient(w).dim == len(shape.lam)


def _fill_neg_cycle(images, offset, length):
    for v in range(offset + 1, offset + length):
        images[v - 1] = v + 1
    images[offset + length - 1] = -(offset + 1)


def _fill_pos_cycle(images, offset, length):
    for v in range(offset + 1, offset + length):
        images[v - 1] = v + 1
    images[offset + length - 1] = offset + 1


def w_mu(n: int, mu: SignedPartition) -> SignedPermutation:
    """The class representative c_1...c_a d_1...d_b for mu: negative cycles,
    then positive ones, on consecutive coordinates."""
    if mu.n != n:
        raise ValueError(f"{mu} is not a signed partition of {n}")
    images = list(range(1, n + 1))
    u = 0
    for length in mu.neg:
        _fill_neg_cycle(images, u, length)
        u += length
    for length in mu.pos:
        _fill_pos_cycle(images, u, length)
        u += length
    return SignedPermutation(tuple(images))


def class_rep(G: GroupDescriptor, label: SignedPartition, tag: str | None = None):
    """The class representative w_mu (or its t-conjugate for tag '-')."""
    n = G.degree
    if label.n != n:
        raise ValueError(f"{label} is not a label for {G}")
    if G.family == "A" and label.neg:
        raise ValueError("type A labels have no negative parts")
    if G.family == "D" and len(label.neg) % 2:
        raise ValueError("type D labels need an even number of negative parts")
    split = G.family == "D" and _splits(label)
    if (tag is not None) != split:
        raise ValueError(f"tag {tag!r} invalid for label {label} in {G}")
    rep = w_mu(n, label)
    if tag == "-":
        rep = rep.conjugate(SignedPermutation.flip(n))
    return rep


# -- centralizer generators and the element stream -------------------------------


def _cycle_neg(n, offset, length):
    images = list(range(1, n + 1))
    _fill_neg_cycle(images, offset, length)
    return SignedPermutation(tuple(images))


def _cycle_pos(n, offset, length):
    images = list(range(1, n + 1))
    _fill_pos_cycle(images, offset, length)
    return SignedPermutation(tuple(images))


def _swap_blocks(n, offset, length):
    """Exchange the two adjacent blocks of the given length at offset."""
    images = list(range(1, n + 1))
    for v in range(offset + 1, offset + length + 1):
        images[v - 1] = v + length
        images[v + length - 1] = v
    return SignedPermutation(tuple(images))


def _negate_block(n, offset, length):
    images = list(range(1, n + 1))
    for v in range(offset + 1, offset + length + 1):
        images[v - 1] = -v
    return SignedPermutation(tuple(images))


@dataclass(frozen=True)
class CentralizerGenSet:
    """The named generators of C(w_mu) built from the block formulas.

    neg_swaps[i] (pos_swaps[j]) is present only where consecutive parts
    agree; keys are 1-based positions into mu.neg (mu.pos).
    """

    n: int
    mu: SignedPartition
    neg_cycles: tuple[SignedPermutation, ...]
    pos_cycles: tuple[SignedPermutation, ...]
    neg_swaps: tuple[tuple[int, SignedPermutation], ...]
    pos_swaps: tuple[tuple[int, SignedPermutation], ...]
    flips: tuple[SignedPermutation, ...]

    def all_generators(self):
        return (
            list(self.neg_cycles)
            + list(self.pos_cycles)
            + [g for _, g in self.neg_swaps]
            + [g for _, g in self.pos_swaps]
            + list(self.flips)
        )


def centralizer_generators(n: int, mu: SignedPartition) -> CentralizerGenSet:
    if mu.n != n:
        raise ValueError(f"{mu} is not a signed partition of {n}")
    m = sum(mu.neg)
    neg_cycles, pos_cycles, neg_swaps, pos_swaps, flips = [], [], [], [], []
    u = 0
    for i, length in enumerate(mu.neg, start=1):
        neg_cycles.append(_cycle_neg(n, u, length))
        if i < len(mu.neg) and mu.neg[i] == length:
            neg_swaps.append((i, _swap_blocks(n, u, length)))
        u += length
    u = m
    for j, length in enumerate(mu.pos, start=1):
        pos_cycles.append(_cycle_pos(n, u, length))
        if j < len(mu.pos) and mu.pos[j] == length:
            pos_swaps.append((j, _swap_blocks(n, u, length)))
        flips.append(_negate_block(n, u, length))
        u += length
    return CentralizerGenSet(
        n,
        mu,
        tuple(neg_cycles),
        tuple(pos_cycles),
        tuple(neg_swaps),
        tuple(pos_swaps),
        tuple(flips),
    )


@lru_cache(maxsize=None)
def _layout(mu: SignedPartition):
    """Per-length families of block offsets: (neg, pos) tuples of
    (length, offsets), grouped here and not by SignedPartition.families,
    so that the oracle shares no code with what it checks."""
    out = []
    u = 0
    for parts in (mu.neg, mu.pos):
        families = []
        for length, run in groupby(parts):
            count = len(list(run))
            families.append((length, tuple(u + k * length for k in range(count))))
            u += count * length
        out.append(tuple(families))
    return tuple(out)


def _neg_orbit(offset, length):
    """Images of offset+1 under powers of the negative cycle on its block."""
    ups = list(range(offset + 1, offset + length + 1))
    return ups + [-v for v in ups]


@dataclass(frozen=True)
class CentralizerCoordinates:
    """Coordinates of a centralizer element in the block decomposition.

    neg entries: (length, perm, exps) with perm the induced permutation of
    the equal-length blocks and exps[s] in [0, 2*length) the twist of block
    s relative to its target cycle.  pos entries additionally carry flips[s]
    in {0, 1} marking whole-block negation.
    """

    n: int
    mu: SignedPartition
    neg: tuple
    pos: tuple


def coordinates(g: SignedPermutation, mu: SignedPartition) -> CentralizerCoordinates:
    """Decompose g in C(w_mu); raises ValueError if g does not centralize."""
    n = g.n
    if mu.n != n:
        raise ValueError(f"{mu} is not a signed partition of {n}")
    neg_fams, pos_fams = _layout(mu)
    neg_out = []
    for length, offsets in neg_fams:
        block_of = {
            c: p for p, off in enumerate(offsets) for c in range(off, off + length)
        }
        perm = [None] * len(offsets)
        exps = [0] * len(offsets)
        for s, u in enumerate(offsets):
            t = g(u + 1)
            p = block_of.get(abs(t) - 1)
            if p is None:
                raise ValueError(f"{g} does not centralize w_{mu}")
            orbit = _neg_orbit(offsets[p], length)
            k = orbit.index(t)
            for q in range(length):
                if g(u + 1 + q) != orbit[(k + q) % (2 * length)]:
                    raise ValueError(f"{g} does not centralize w_{mu}")
            perm[s] = p
            exps[s] = k
        if sorted(perm) != list(range(len(offsets))):
            raise ValueError(f"{g} does not centralize w_{mu}")
        neg_out.append((length, tuple(perm), tuple(exps)))
    pos_out = []
    for length, offsets in pos_fams:
        block_of = {
            c: p for p, off in enumerate(offsets) for c in range(off, off + length)
        }
        perm = [None] * len(offsets)
        exps = [0] * len(offsets)
        flips = [0] * len(offsets)
        for s, u in enumerate(offsets):
            t = g(u + 1)
            p = block_of.get(abs(t) - 1)
            if p is None:
                raise ValueError(f"{g} does not centralize w_{mu}")
            eps = 1 if t < 0 else 0
            k = abs(t) - (offsets[p] + 1)
            sgn = -1 if eps else 1
            for q in range(length):
                expected = sgn * (offsets[p] + 1 + (k + q) % length)
                if g(u + 1 + q) != expected:
                    raise ValueError(f"{g} does not centralize w_{mu}")
            perm[s] = p
            exps[s] = k
            flips[s] = eps
        if sorted(perm) != list(range(len(offsets))):
            raise ValueError(f"{g} does not centralize w_{mu}")
        pos_out.append((length, tuple(perm), tuple(exps), tuple(flips)))
    return CentralizerCoordinates(n, mu, tuple(neg_out), tuple(pos_out))


def reassemble(coords: CentralizerCoordinates) -> SignedPermutation:
    """Inverse of coordinates(): rebuild the group element."""
    neg_fams, pos_fams = _layout(coords.mu)
    images = [0] * coords.n
    for (length, offsets), (_, perm, exps) in zip(neg_fams, coords.neg):
        for s, u in enumerate(offsets):
            orbit = _neg_orbit(offsets[perm[s]], length)
            k = exps[s]
            for q in range(length):
                images[u + q] = orbit[(k + q) % (2 * length)]
    for (length, offsets), (_, perm, exps, flips) in zip(pos_fams, coords.pos):
        for s, u in enumerate(offsets):
            base = offsets[perm[s]] + 1
            sgn = -1 if flips[s] else 1
            k = exps[s]
            for q in range(length):
                images[u + q] = sgn * (base + (k + q) % length)
    return SignedPermutation(tuple(images))


@lru_cache(maxsize=None)
def _perms_with_signs(m: int):
    out = []
    for perm in permutations(range(m)):
        inversions = sum(
            1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def centralizer_elements(n, mu, *, flips=True, parity=None):
    """Stream C(w_mu) as (images, neg_summary, pos_summary) triples.

    images is the raw image tuple; the summaries hold, per cycle length,
    the data a linear character sees: (-length or length, total twist,
    sign of the block permutation, number of negated blocks mod 2), the
    last always 0 on a negative family.  With flips=False only flip-free
    elements are produced (the centralizer taken inside S_n); parity=0
    keeps elements with an even number of negative entries (the
    centralizer inside D_n).
    """
    neg_fams, pos_fams = _layout(mu)
    neg_choices = []
    for length, offsets in neg_fams:
        m = len(offsets)
        fam = []
        for perm, sign in _perms_with_signs(m):
            for exps in product(range(2 * length), repeat=m):
                fam.append((perm, sign, exps, sum(exps)))
        neg_choices.append((length, offsets, fam))
    pos_choices = []
    for length, offsets in pos_fams:
        m = len(offsets)
        flip_space = product((0, 1), repeat=m) if flips else ((0,) * m,)
        flip_space = tuple(flip_space)
        fam = []
        for perm, sign in _perms_with_signs(m):
            for exps in product(range(length), repeat=m):
                for eps in flip_space:
                    fam.append((perm, sign, exps, eps))
        pos_choices.append((length, offsets, fam))

    neg_orbits = [
        [_neg_orbit(off, length) for off in offsets]
        for length, offsets, _ in neg_choices
    ]

    for neg_pick in product(*(fam for _, _, fam in neg_choices)):
        neg_parity = sum(pick[3] for pick in neg_pick)
        neg_summary = tuple(
            (-length, pick[3] % (2 * length), pick[1], 0)
            for (length, _, _), pick in zip(neg_choices, neg_pick)
        )
        for pos_pick in product(*(fam for _, _, fam in pos_choices)):
            if parity is not None:
                # negative entries: one per unit of twist on a negative
                # block, a whole block per flip on a positive one
                total = neg_parity + sum(
                    length * sum(pick[3])
                    for (length, _, _), pick in zip(pos_choices, pos_pick)
                )
                if total % 2 != parity:
                    continue
            images = [0] * n
            for (length, offsets, _), orbits, (perm, _, exps, _) in zip(
                neg_choices, neg_orbits, neg_pick
            ):
                two = 2 * length
                for s, u in enumerate(offsets):
                    orbit = orbits[perm[s]]
                    k = exps[s]
                    for q in range(length):
                        images[u + q] = orbit[(k + q) % two]
            for (length, offsets, _), (perm, _, exps, eps) in zip(
                pos_choices, pos_pick
            ):
                for s, u in enumerate(offsets):
                    base = offsets[perm[s]] + 1
                    sgn = -1 if eps[s] else 1
                    k = exps[s]
                    for q in range(length):
                        images[u + q] = sgn * (base + (k + q) % length)
            pos_summary = tuple(
                (length, sum(pick[2]) % length, pick[1], sum(pick[3]) % 2)
                for (length, _, _), pick in zip(pos_choices, pos_pick)
            )
            yield tuple(images), neg_summary, pos_summary


def conjugate_by_first_flip(images):
    """Image tuple of t h t given the image tuple of h (t flips coordinate 1)."""
    out = [-v if abs(v) == 1 else v for v in images]
    out[0] = -out[0]
    return tuple(out)


# -- character values element by element ------------------------------------------


def summary_value(values, summary) -> Root:
    """The value at the family elements with this summary (key, twist,
    sign, flips) of a character with the triple (a, s, r) = values[key]:
    (zeta_2L^a)^twist, times (-1)^s when the block permutation is odd and
    ((-1)^r)^flips, L = |key|.  The rule as the characters module states
    it per family, which the library applies cycle by cycle instead."""
    key, twist, sign, flips = summary
    a, s, r = values[key]
    value = root_pow(root(a, 2 * abs(key)), twist)
    if sign < 0:
        value = root_mul(value, root(s, 2))
    return root_mul(value, root_pow(root(r, 2), flips))


def evaluate_summaries(spec: LinearCharacterSpec, neg_summary, pos_summary) -> Root:
    """The value at an element with these per-family summaries: the product
    of its families' values (summary_value)."""
    value = ONE
    for summary in neg_summary + pos_summary:
        value = root_mul(value, summary_value(spec.values, summary))
    return value


def _summaries(coords: CentralizerCoordinates):
    """The per-family (-length or length, twist, sign, flips) data that
    evaluate_summaries reads, from coordinates."""
    def perm_sign(perm):
        m = len(perm)
        inv = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
        return -1 if inv % 2 else 1

    neg = tuple(
        (-length, sum(exps) % (2 * length), perm_sign(perm), 0)
        for length, perm, exps in coords.neg
    )
    pos = tuple(
        (length, sum(exps) % length, perm_sign(perm), sum(flips) % 2)
        for length, perm, exps, flips in coords.pos
    )
    return neg, pos


def base_rep(spec: LinearCharacterSpec) -> SignedPermutation:
    """The element whose centralizer the character lives on."""
    return class_rep(spec.group, spec.label, spec.tag)


def evaluate(spec: LinearCharacterSpec, g: SignedPermutation) -> Root:
    """Value of the character at g; rejects elements outside the centralizer."""
    if spec.group.family == "A" and not g.is_positive():
        raise ValueError(f"{g} is not in {spec.group}")
    if spec.group.family == "D" and not g.is_even_signed():
        raise ValueError(f"{g} is not in {spec.group}")
    if spec.tag == "-":
        g = g.conjugate(SignedPermutation.flip(g.n))
    coords = coordinates(g, spec.label)
    return evaluate_summaries(spec, *_summaries(coords))


def class_function_of_spec(G: GroupDescriptor, spec: LinearCharacterSpec):
    """Values of a centralizer character at the class representatives.

    Only valid when the centralizer is the whole group (central base
    element); this is the induced character in that degenerate case.
    """
    values = []
    for cls in conjugacy_classes(G):
        value = Cyc.from_root(evaluate(spec, class_rep(G, cls.label, cls.tag)))
        q = value.as_rational()
        assert q is not None and q.denominator == 1, f"{spec} at {cls}: {value}"
        values.append(int(q))
    return ClassFunction(G, tuple(values))


# -- the stock characters phi_B and psi, rule by rule -------------------------------
#
# The library keeps phi_w as one (a, s, r) rule per family letter; these are
# the type-B rule and the type-D rule (psi, on the full hyperoctahedral
# centralizer) written out from the characters module docstring, so that a
# test compares the library against its own copy of each.


def _family_keys(mu: SignedPartition):
    return {-p for p in mu.neg} | set(mu.pos)


def phi_B(mu: SignedPartition) -> LinearCharacterSpec:
    """zeta_{2k} = zeta_{2L}^(2^l) on negative L-cycles, L = 2^l k with k
    odd, and -1 on their swaps; zeta_j on positive j-cycles, +1 on their
    swaps and (-1)^(j-1) on the negation of a j-block."""
    values = {}
    for key in _family_keys(mu):
        length = abs(key)
        if key < 0:
            power = 1
            while length % (2 * power) == 0:
                power *= 2
            values[key] = (power, 1, 0)
        else:
            values[key] = (2, 0, (length - 1) % 2)
    return LinearCharacterSpec(GroupDescriptor("B", mu.n), mu, None, values, "phiB")


def psi(mu: SignedPartition) -> LinearCharacterSpec:
    """zeta_{2i} on negative i-cycles and -1 on their swaps; zeta_j on
    positive j-cycles, +1 on their swaps and -1 on every block negation.
    Only labels with an even number of negative parts, those of type D."""
    if len(mu.neg) % 2:
        raise ValueError("psi needs an even number of negative parts")
    values = {key: (1, 1, 0) if key < 0 else (2, 0, 1) for key in _family_keys(mu)}
    return LinearCharacterSpec(GroupDescriptor("B", mu.n), mu, None, values, "psi")


# -- induction and the alpha character by definition -----------------------------


@lru_cache(maxsize=8)
def _conjugate_multiset(G: GroupDescriptor):
    """Per class of G: the multiset {x^{-1} g x : x in G} as an images->count
    map.  One literal |G|-scan per class, shared across oracle calls."""
    elements = list(group_elements(G))
    tables = []
    for cls in conjugacy_classes(G):
        g = class_rep(G, cls.label, cls.tag)
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
    w = base_rep(chi)
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


# -- induction on root-keyed class tallies ----------------------------------------
#
# The library's induction before its tallies were keyed by integers: a key
# is (sorted signed cycle lengths, Root, negatives mod 2, side), families are
# joined by sorting the concatenated lengths and multiplying roots, and each
# family's cycle tally is read off one built signed permutation per product.


def _root_cycle_tally(length, c, negative, flips):
    """(cycles, twist, flip, negatives, side) -> weight for one c-cycle of
    the block permutation, each product represented by the element that
    puts it on the last block (see centralizers._cycle_tally)."""
    if negative:
        products = [(k, 0) for k in range(2 * length)]
    else:
        products = [(k, e) for k in range(length) for e in ((0, 1) if flips else (0,))]
    weight = len(products) ** (c - 1)
    has_odd = negative or (flips and length % 2)
    n = c * length
    out: dict = {}
    for twist, flip in products:
        images = list(range(length + 1, n + 1))
        if negative:
            orbit = _neg_orbit(0, length)
            images += [orbit[(twist + q) % (2 * length)] for q in range(length)]
        else:
            sgn = -1 if flip else 1
            images += [sgn * (1 + (twist + q) % length) for q in range(length)]
        w = SignedPermutation(tuple(images))
        cycles = w.signed_cycles()
        signed = tuple(sorted(sign * len(support) for support, sign in cycles))
        negatives = w.neg_count() % 2
        if has_odd and c % 2 == 0:
            sides = ((0, weight // 2), (1, weight // 2))
        else:
            side = sum(cycle_side_parity(w, support[0]) for support, _ in cycles)
            sides = ((side % 2, weight),)
        for side, count in sides:
            out[(signed, twist, flip, negatives, side)] = count
    return out


def _z_lam(lam) -> int:
    """z_lam = prod over parts p of p^(m_p) m_p!, m_p the multiplicity of
    p: the order of the centralizer in S_m of a permutation of cycle type
    lam."""
    out = 1
    for p, multiplicity in Counter(lam).items():
        out *= p**multiplicity * factorial(multiplicity)
    return out


def _convolve(a: dict, b: dict, combine) -> dict:
    out: dict = {}
    for key_a, weight_a in a.items():
        for key_b, weight_b in b.items():
            key = combine(key_a, key_b)
            out[key] = out.get(key, 0) + weight_a * weight_b
    return out


@lru_cache(maxsize=None)
def _root_family_tally(length, m, negative, flips):
    """(cycles, summary, negatives, side) -> weight for the family K wr S_m."""
    modulus = 2 * length if negative else length

    def combine(a, b):
        return (
            tuple(sorted(a[0] + b[0])), (a[1] + b[1]) % modulus,
            a[2] ^ b[2], a[3] ^ b[3], a[4] ^ b[4],
        )

    out: dict = {}
    for lam in partitions(m):
        tally = {((), 0, 0, 0, 0): 1}
        for c in lam:
            cycle = _root_cycle_tally(length, c, negative, flips)
            tally = _convolve(tally, cycle, combine)
        conjugates = factorial(m) // _z_lam(lam)
        sign = -1 if (m - len(lam)) % 2 else 1
        for (cycles, twist, flip, negatives, side), weight in tally.items():
            summary = (-length if negative else length, twist, sign, flip)
            key = (cycles, summary, negatives, side)
            out[key] = out.get(key, 0) + conjugates * weight
    return out


def induce_by_root_tallies(G: GroupDescriptor, chi: LinearCharacterSpec):
    """Induction by convolving root-keyed family tallies, each class's
    bucket of roots reduced in the power basis of their common order: the
    oracle of the integer-keyed kernel."""
    classes = conjugacy_classes(G)
    keys = {cls.key: k for k, cls in enumerate(classes)}
    order_h = classes[keys[(chi.label, chi.tag)]].centralizer_order
    in_d = G.family == "D"
    neg_fams, pos_fams = _layout(chi.label)
    families = [(True, length, len(offsets)) for length, offsets in neg_fams]
    families += [(False, length, len(offsets)) for length, offsets in pos_fams]
    tally = {((), ONE, 0, 0): 1}
    for negative, length, m in families:
        valued: dict = {}
        family = _root_family_tally(length, m, negative, G.family != "A")
        for (cycles, summary, negatives, side), weight in family.items():
            value = summary_value(chi.values, summary)
            if not in_d:
                negatives = 0
            if not in_d or any(c < 0 or c % 2 for c in cycles):
                side = 0
            key = (cycles, value, negatives, side)
            valued[key] = valued.get(key, 0) + weight
        tally = _convolve(tally, valued, lambda a, b: (
            tuple(sorted(a[0] + b[0])), root_mul(a[1], b[1]), a[2] ^ b[2], a[3] ^ b[3],
        ))
    buckets: dict = {}
    for (cycles, value, negatives, side), weight in tally.items():
        if negatives:
            continue
        label = SignedPartition(
            tuple(-c for c in reversed(cycles) if c < 0),
            tuple(c for c in reversed(cycles) if c > 0),
        )
        key = (label, None)
        if key not in keys:
            key = (label, "-" if side ^ (chi.tag == "-") else "+")
        bucket = buckets.setdefault(keys[key], {})
        bucket[value] = bucket.get(value, 0) + weight
    assert sum(
        weight for key, weight in tally.items() if not key[2]
    ) == order_h, f"{G} {chi}: element count"
    values = [0] * len(classes)
    for k, bucket in buckets.items():
        m = 1
        for _, order in bucket:
            m = m * order // gcd(m, order)
        table = _power_table(m)
        coeffs = [0] * len(table[0])
        for (e, order), count in bucket.items():
            for i, v in enumerate(table[e * (m // order)]):
                coeffs[i] += count * v
        value, rest = divmod(coeffs[0] * classes[k].centralizer_order, order_h)
        assert not any(coeffs[1:]) and not rest, f"{G} {classes[k]}: {bucket}"
        values[k] = value
    return ClassFunction(G, tuple(values))


def class_sums_two_pass(G: GroupDescriptor, label: SignedPartition, tag, values):
    """centralizers.class_sums the two-pass way: every family's valued
    tally convolved into one tally of the whole centralizer, then each
    code, its side digit taken mod 2, mapped through code_index (an odd
    element of a type-D tally names no class and is dropped):
    (class index -> sum of the character, elements summed)."""
    unit = side_unit(G.degree)
    tally = {unit if tag == "-" else 0: (1, 1)}
    for family in centralizer_tallies(label, G.family, values):
        product_tally: dict = {}
        for code_a, (value_a, count_a) in tally.items():
            for code_b, (value_b, count_b) in family.items():
                value, count = product_tally.get(code_a + code_b, (0, 0))
                product_tally[code_a + code_b] = (
                    value + value_a * value_b, count + count_a * count_b
                )
        tally = product_tally
    index = code_index(G)
    sums: dict = {}
    tallied = 0
    for code, (value, count) in tally.items():
        k = index.get(code % (2 * unit))
        if k is not None:
            tallied += count
            sums[k] = sums.get(k, 0) + value
    return sums, tallied


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


def incidence(point, hyperplanes) -> int:
    """Bitset of the hyperplanes, by position, that contain the flat of a
    generic point."""
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


def flat_dim(point) -> int:
    """The dimension of the flat of a generic point: its number of nonzero
    blocks, the distinct nonzero |entries|."""
    return len({abs(x) for x in point if x})


def flat_codim(point) -> int:
    """The codimension of the flat of a generic point, from flat_dim."""
    return len(point) - flat_dim(point)


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
                flat = (new, incidence(new, hyperplanes), flat_dim(new))
                flats.append(flat)
                next_frontier.append(flat)
        frontier = next_frontier
    return [(point, bits, dim, shape_of_point(G, point)) for point, bits, dim in flats]


# -- stable flats built one by one -------------------------------------------


def stable_points(G: GroupDescriptor, w: SignedPermutation):
    """(point, interval type) of every w-stable flat, each once.

    The flats are built cycle by cycle.  A cycle c_0 -> c_1 -> ... of |w|,
    of length L and sign sigma (the product of its signs), goes into the
    zero block (types B and D), opens an orbit of k blocks for a k dividing
    L, or joins an open orbit of the same k at one of its k offsets o, with
    either sign a in types B and D (a = 1 when it opens one, o = 0).  Then
    c_j lies in block (o + j) mod k of the orbit with sign
    a * (eps_0 ... eps_(j-1)) * lam^((o + j) // k), eps_j the sign of w at
    c_j and lam = +-1 the scalar by which w^k acts on the orbit's first
    block; the cycle closes up iff sigma * lam^(L / k) = 1.  Type D drops
    the flats whose zero block has one coordinate.

    The interval type, the key of mu_w(V, X), is the sorted (sigma, L) of
    the zero cycles and the sorted (k, sorted L / k) of the orbits: w^k
    leaves one cycle of length L / k on a block for each cycle of the
    orbit.  It depends on which cycles go where, not on offsets or signs,
    so it is computed once per such structure.

    Cycles are taken in the order of their smallest coordinates, each
    starting there, so an orbit's first block holds the smallest
    coordinate of the orbit with sign +, and its number is already its
    label in the canonical point.  The other blocks of an orbit of k > 1
    blocks get numbers above n, relabelled by their smallest coordinate
    once the flat is complete.
    """
    n = G.degree
    family = G.family
    signs = (1,) if family == "A" else (1, -1)
    images = w.images
    cycles = []  # (coordinates, prefix sign products, sigma)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        coords, prefix, sign, v = [], [], 1, start
        while not seen[v]:
            seen[v] = True
            coords.append(v)
            prefix.append(sign)
            if images[v] < 0:
                sign = -sign
            v = abs(images[v]) - 1
        cycles.append((coords, prefix, sign))

    def codes(cycle, numbers, lam, offset, a):
        """(coordinate, +-block number) of a cycle placed at an offset of
        the orbit whose blocks have these numbers."""
        coords, prefix, _ = cycle
        k = len(numbers)
        return tuple(
            (c, a * prefix[j] * lam ** ((offset + j) // k) * numbers[(offset + j) % k])
            for j, c in enumerate(coords)
        )

    zero: list[tuple[int, int]] = []  # (sigma, L) of the zero cycles
    orbits: list[tuple] = []  # (k, lam, block numbers, [L // k of each cycle])
    choices: list[tuple] = []  # per cycle, the codes of each placement
    types: dict = {}  # one shared object per interval type

    def structures(i, zero_size, top):
        """(interval type, placements of each cycle, relabel?) of every
        way to place cycles i, i + 1, ... after the ones already placed;
        top is the largest block number in use, n if none is above n."""
        if i == len(cycles):
            if family == "D" and zero_size == 1:
                return
            key = (
                tuple(sorted(zero)),
                tuple(sorted((k, tuple(sorted(rho))) for k, _, _, rho in orbits)),
            )
            yield types.setdefault(key, key), tuple(choices), top > n
            return
        cycle = cycles[i]
        length, sigma = len(cycle[0]), cycle[2]
        if family != "A":
            zero.append((sigma, length))
            choices.append(((),))
            yield from structures(i + 1, zero_size + length, top)
            choices.pop()
            zero.pop()
        for k, lam, numbers, rho in orbits:
            if length % k or sigma * lam ** (length // k) != 1:
                continue
            rho.append(length // k)
            choices.append(tuple(
                codes(cycle, numbers, lam, o, a) for o in range(k) for a in signs
            ))
            yield from structures(i + 1, zero_size, top)
            choices.pop()
            rho.pop()
        for k in range(1, length + 1):
            if length % k:
                continue
            for lam in signs:
                if sigma * lam ** (length // k) != 1:
                    continue
                numbers = (cycle[0][0] + 1,) + tuple(range(top + 1, top + k))
                orbits.append((k, lam, numbers, [length // k]))
                choices.append((codes(cycle, numbers, lam, 0, 1),))
                yield from structures(i + 1, zero_size, top + k - 1)
                choices.pop()
                orbits.pop()

    for key, placements, relabel in structures(0, 0, n):
        code = [0] * n
        for pick in product(*placements):
            for placed in pick:
                for c, v in placed:
                    code[c] = v
            if not relabel:
                yield tuple(code), key
                continue
            label: dict[int, int] = {}
            point = []
            for c, v in enumerate(code):
                if v > n or v < -n:
                    f = label.get(abs(v))
                    if f is None:
                        f = label[abs(v)] = c + 1 if v > 0 else -c - 1
                    v = f if v > 0 else -f
                point.append(v)
            yield tuple(point), key


# -- stable flats by testing every flat ----------------------------------------


def hyperplane_action(G: GroupDescriptor, w: SignedPermutation) -> tuple[int, ...]:
    """Permutation of hyperplane indices induced by w."""
    index = {h: k for k, h in enumerate(hyperplane_set(G))}
    out = []
    for h in hyperplane_set(G):
        a = w(h.i)
        if not h.j:
            image = Hyperplane(abs(a), 0, 0)
        else:
            b = w(h.j)
            rel = h.rel if (a > 0) == (b > 0) else -h.rel
            ai, bi = abs(a), abs(b)
            image = Hyperplane(min(ai, bi), max(ai, bi), rel)
        out.append(index[image])
    return tuple(out)


@lru_cache(maxsize=None)
def flat_bits(lattice) -> tuple[int, ...]:
    """Incidence bits over hyperplane_set of every flat, by flat index."""
    hyperplanes = hyperplane_set(lattice.G)
    return tuple(incidence(point, hyperplanes) for point in lattice.flats)


def stable_flats_by_bits(lattice, w: SignedPermutation) -> list[int]:
    """Indices of the w-stable flats, testing every flat: w permutes the
    hyperplanes, so a flat is stable once the image of each of its
    hyperplanes is again one of them; the test stops at the first that is
    not."""
    action = hyperplane_action(lattice.G, w)
    out = []
    for index, bits in enumerate(flat_bits(lattice)):
        rest = bits
        while rest:
            low = rest & -rest
            if not bits >> action[low.bit_length() - 1] & 1:
                break
            rest ^= low
        else:
            out.append(index)
    return out


def interval_type(point, w: SignedPermutation):
    """The key that fixes mu_w(V, X) for a w-stable flat X with this point,
    read off the point.

    The signed cycle type of w on the zero block, and the sorted multiset,
    over w-orbits of the other blocks, of (orbit length k, cycle type of
    w^k on one block of the orbit).  A cycle of |w| off the zero block
    meets every block of its orbit equally often, so k is the number of
    labels it meets and it leaves one cycle of length len/k in w^k on a
    block.  Cycles are grouped by the orbit's smallest label; grouping them
    by the label a walk starts in would split an orbit and merge types.
    """
    images = w.images
    seen = [False] * len(point)
    zero = []
    orbits: dict[int, tuple[int, list[int]]] = {}
    for start in range(len(point)):
        if seen[start]:
            continue
        labels = set()
        length, sign, v = 0, 1, start
        while not seen[v]:
            seen[v] = True
            labels.add(abs(point[v]))
            length += 1
            image = images[v]
            if image < 0:
                sign = -sign
            v = abs(image) - 1
        if point[start] == 0:
            zero.append((sign, length))
        else:
            k = len(labels)
            orbits.setdefault(min(labels), (k, []))[1].append(length // k)
    blocks = sorted((k, tuple(sorted(rho))) for k, rho in orbits.values())
    return tuple(sorted(zero)), tuple(blocks)


# -- stable structures counted by interval type ---------------------------------


def _zero_mu(counts: Counter) -> int:
    """mu_top of the type B zero block whose cycles have these (sigma, L)
    counts."""
    value = 1
    for (sigma, length), m in counts.items():
        b = -1 if length == 1 else sigma if length & (length - 1) == 0 else 0
        value *= prod(b - 2 * length * j for j in range(m))
    return value


def _interval_mu(family: str, zero: tuple, orbits: tuple) -> int:
    """mu_w(V, X) of the interval type (zero, orbits) that
    _stable_structures gives X, by the products of the lattice module
    docstring, factor by factor."""
    value = 1
    for _, rho in orbits:
        length = rho[0]
        if any(r != length for r in rho):
            return 0
        value *= _number_mu(length) * prod(-j * length for j in range(1, len(rho)))
    if family == "A":
        return value
    counts = Counter(zero)
    total = _zero_mu(counts)
    if family == "D":
        for one in ((1, 1), (-1, 1)):
            total += counts[one] * _zero_mu(counts - Counter([one]))
    return value * total


def _stable_structures(G: GroupDescriptor, mu: SignedPartition, tag=None) -> dict:
    """(interval type, shape) -> number of flats stable under an element w
    of the class (mu, tag), counted from the structures of its cycles; no
    flat is built.

    For tag None or '+', w is w_mu, whose cycles run c_0 -> c_1 -> ... over
    consecutive coordinates from the smallest, every step positive except
    the last one of a negative cycle.  A cycle of length L and sign sigma
    (a part L of mu.pos or mu.neg) goes into the zero block (types B and
    D), opens an orbit of k blocks for a k dividing L, or joins an open
    orbit of the same k, where lam = +-1 is the scalar by which w^k acts on
    each block of the orbit: the cycle closes up iff
    sigma * lam^(L / k) = 1.  A structure says which cycles go where.  It
    fixes the interval type, the key of mu_w(V, X): the sorted (sigma, L) of the zero cycles and the sorted
    (k, sorted L / k) of the orbits, w^k leaving one cycle of length L / k
    on a block for each cycle of the orbit.  It fixes the shape: an orbit
    is k blocks of size sum(L / k), and type D drops a zero block of one
    coordinate.  And it fixes how many flats it stands for: the orbit's
    first cycle puts c_0 in its first block with sign +, and every cycle
    that joins it picks the block of its c_0 and, in types B and D, a sign,
    k * |signs| flats each.

    Only the D shapes with no zero block and all blocks even split, by the
    parity of the negative entries of the canonical point.  A cycle placed
    at block offset o with sign a writes a * lam^((o + j) // k) at c_j, and
    making the point canonical flips whole blocks, which keeps the parity
    of an even block's negatives.  So in type D each placement also carries
    the parity of the negatives it writes, and a partial structure is kept
    apart by that parity too.  The '-' class is t w_mu t, t the sign change
    of the first coordinate: t maps the flats stable under w_mu onto those
    stable under t w_mu t, keeping interval types and block sizes and
    flipping one entry of each point, so the split tags swap.

    The cycles are placed in (L, sigma) order, and the count of every
    partial structure is kept by its canonical state: the sorted zero
    cycles, the sorted open orbits (k, lam, L / k of each cycle) and the
    parity.  Partial structures with equal states have equal futures, so
    each state is extended once.
    """
    family = G.family
    signs = (1,) if family == "A" else (1, -1)
    cycles = sorted(
        [(length, -1) for length in mu.neg] + [(length, 1) for length in mu.pos]
    )

    def placements(length, k, lam, offsets, flips):
        """(parity of the negatives written, how many placements) over the
        given offsets and signs; in types A and B the parity is not kept."""
        if family != "D":
            return ((0, len(offsets) * len(flips)),)
        counts = [0, 0]
        for o in offsets:
            odd = sum(lam ** ((o + j) // k) < 0 for j in range(length))
            for a in flips:
                counts[(odd if a == 1 else length - odd) % 2] += 1
        return tuple((bit, m) for bit, m in enumerate(counts) if m)

    states = {((), (), 0): 1}  # (zero (L, sigma), orbits (k, lam, rho), parity)
    for length, sigma in cycles:
        fits = [
            (k, lam)
            for k in range(1, length + 1)
            if length % k == 0
            for lam in signs
            if sigma * lam ** (length // k) == 1
        ]
        opens = {f: placements(length, *f, (0,), (1,)) for f in fits}
        joins = {f: placements(length, *f, range(f[0]), signs) for f in fits}
        grown: dict = {}
        for (zero, orbits, parity), count in states.items():
            if family != "A":
                state = (zero + ((length, sigma),), orbits, parity)
                grown[state] = grown.get(state, 0) + count
            for i, (k, lam, rho) in enumerate(orbits):
                if (k, lam) not in joins:
                    continue
                joined = (k, lam, rho + (length // k,))
                rest = tuple(sorted(orbits[:i] + (joined,) + orbits[i + 1:]))
                for bit, m in joins[k, lam]:
                    state = (zero, rest, parity ^ bit)
                    grown[state] = grown.get(state, 0) + count * m
            for (k, lam), ways in opens.items():
                rest = tuple(sorted(orbits + ((k, lam, (length // k,)),)))
                for bit, m in ways:
                    state = (zero, rest, parity ^ bit)
                    grown[state] = grown.get(state, 0) + count * m
        states = grown

    out: dict = {}
    for (zero, orbits, parity), count in states.items():
        zero_size = sum(length for length, _ in zero)
        if family == "D" and zero_size == 1:
            continue
        sizes = tuple(sorted(
            (sum(rho) for k, _, rho in orbits for _ in range(k)), reverse=True
        ))
        side = None
        if family == "D" and not zero_size and all(p % 2 == 0 for p in sizes):
            side = "-" if parity ^ (tag == "-") else "+"
        key = (
            tuple(sorted((sigma, length) for length, sigma in zero)),
            tuple(sorted((k, rho) for k, _, rho in orbits)),
        )
        entry = (key, Shape(sizes, side))
        out[entry] = out.get(entry, 0) + count
    return out


def shape_sums_by_interval_type(G: GroupDescriptor, mu: SignedPartition, tag=None):
    """Shape -> sum of count * mu_w over the stable structures of the class
    (mu, tag), each interval type valued on its own; zero sums dropped."""
    table = Counter()
    for (key, shape), count in _stable_structures(G, mu, tag).items():
        table[shape] += count * _interval_mu(G.family, *key)
    return {shape: total for shape, total in table.items() if total}


# -- Poincare rows from point counts ---------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cycle_sum(k: int, weight) -> list[int]:
    """sum over d | k of mu(k/d) weight(k/d) (q^d - 1), ascending in q."""
    out = [0] * (k + 1)
    for d in range(1, k + 1):
        if k % d == 0:
            c = _number_mu(k // d) * weight(k // d)
            out[d] += c
            out[0] -= c
    return out


def _point_count(family: str, counts: Counter) -> list[int]:
    """C_w(q), ascending, for the A or B complement and the (sign, k) ->
    number of k-cycles of w: a product of falling factorials, one per
    (sign, k), of N_k = sum_{d | k} mu(k/d) q^d in type A, and in type B
    of 2S_k for the positive k-cycles and 2T_k for the negative ones, where
    S_k sums mu(k/d) (q^d - 1), halved when k/d is odd, and
    T_k = sum mu(k/d) (q^d - 1) - S_k."""
    total = [1]
    for (sign, k), m in counts.items():
        if family == "A":
            base = _cycle_sum(k, lambda e: 1)
            base[0] = 0  # N_k has no constant term
            step = k
        else:
            base = _cycle_sum(k, lambda e: 1 if e % 2 else 2)
            if sign < 0:
                base = [2 * a - b for a, b in zip(_cycle_sum(k, lambda e: 1), base)]
            step = 2 * k
        for j in range(m):
            total = _poly_mul(total, [base[0] - step * j] + base[1:])
    return total


def point_count_poincare(G: GroupDescriptor, label: SignedPartition, tag=None):
    """Coefficients of P_w(t), ascending, for w in the class (label, tag),
    of length degree + 1 (one more than rank + 1 in type A, whose t^n
    coefficient is 0), from the points of the complement M fixed by w F
    over F_q (Lehrer, J. London Math. Soc. 1987; Kisin-Lehrer, J. Algebra
    2002): C_w(q) = sum_i (-1)^i tr(w, H^i(M)) q^(n - i), so
    P_w(t) = (-t)^n C_w(-1/t), n the degree.

    In type D a point may have one zero coordinate, on a 1-cycle of w, and
    C^D = C^B + m+_1 C^B(one positive 1-cycle fewer) + m-_1 C^B(one
    negative 1-cycle fewer).  The count reads only the signed cycle type,
    so the two classes of a split pair get equal rows.  No flat, structure
    or Moebius value is used.
    """
    n = G.degree
    counts = Counter([(-1, k) for k in label.neg] + [(1, k) for k in label.pos])
    count = _point_count(G.family, counts)
    if G.family == "D":
        for one in ((1, 1), (-1, 1)):
            if counts[one]:
                fewer = _point_count("B", counts - Counter([one])) + [0]
                count = [c + counts[one] * f for c, f in zip(count, fewer)]
    count += [0] * (n + 1 - len(count))
    return tuple((-1) ** i * count[n - i] for i in range(n + 1))


# -- label helpers only tests use ------------------------------------------------


def mu_bar(mu: SignedPartition) -> SignedPartition:
    """Collapse the negative parts to the single part |neg| (dropped if 0)."""
    total = sum(mu.neg)
    return SignedPartition((total,) if total else (), mu.pos)


def parse_signed_partition(text: str) -> SignedPartition:
    """Parse "-1-2+3+1" into SignedPartition(neg=(1, 2), pos=(3, 1))."""
    text = text.strip()
    if text in ("", "()"):
        return SignedPartition((), ())
    if not re.fullmatch(r"[+-]?[1-9][0-9]*([+-][1-9][0-9]*)*", text):
        raise ValueError(f"bad signed partition {text!r}")
    parts = [int(token) for token in re.findall(r"[+-]?[0-9]+", text)]
    neg = tuple(-p for p in parts if p < 0)
    pos = tuple(p for p in parts if p > 0)
    if any(p < 0 for p in parts[len(neg):]):
        raise ValueError(f"negative parts must precede positive in {text!r}")
    return SignedPartition(neg, pos)


def root_conj(a: Root) -> Root:
    return root(-a[0], a[1])


def reflection_exponents(G: GroupDescriptor):
    """Exponents m_i with P_1(t) = prod (1 + m_i t)."""
    n = G.degree
    if G.family == "A":
        return tuple(range(1, n))
    if G.family == "B":
        return tuple(2 * i - 1 for i in range(1, n + 1))
    return tuple(2 * i - 1 for i in range(1, n)) + (n - 1,)
