"""Exact cyclotomic arithmetic.

Roots of unity are pairs (k, m) standing for exp(2*pi*i*k/m), kept
normalized with gcd(k, m) = 1 (so m is the true order).  Sums of roots
with rational coefficients live in `Cyc`; equality and rationality tests
reduce modulo the m-th cyclotomic polynomial, so all identities are
decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "Root",
    "ONE",
    "MINUS_ONE",
    "root",
    "root_mul",
    "root_pow",
    "root_conj",
    "Cyc",
    "cyclotomic_polynomial",
]

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


def root_conj(a: Root) -> Root:
    return root(-a[0], a[1])


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
