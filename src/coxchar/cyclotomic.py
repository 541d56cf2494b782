"""Exact cyclotomic arithmetic.

Roots of unity are pairs (k, m) standing for exp(2*pi*i*k/m), kept
normalized with gcd(k, m) = 1 (so m is the true order).  A sum of roots
is reduced modulo the m-th cyclotomic polynomial through the power table
x^k mod Phi_m, so rationality is decided exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

__all__ = [
    "Root",
    "ONE",
    "MINUS_ONE",
    "root",
    "root_mul",
    "root_pow",
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
