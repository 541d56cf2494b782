"""Roots of unity and their orbit sums.

Roots of unity are pairs (k, m) standing for exp(2*pi*i*k/m), kept
normalized with gcd(k, m) = 1 (so m is the true order).  The primitive
d-th roots form one Galois orbit of phi(d) roots, which sums to mu(d);
a sum of roots that is a union of whole orbits is an integer, read off
these two numbers alone.
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
    "totient_moebius",
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


@lru_cache(maxsize=None)
def totient_moebius(d: int) -> tuple[int, int]:
    """(phi(d), mu(d)): how many primitive d-th roots of unity there are,
    one Galois orbit, and their sum."""
    phi, mu, rest, p = d, 1, d, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            phi -= phi // p
            mu = 0 if rest % p == 0 else -mu
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
        mu = -mu
    return phi, mu
