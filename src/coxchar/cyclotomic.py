"""Galois orbits of roots of unity: their size and sum, and the integer
sum of a multiset of roots that is a union of whole orbits.

The primitive d-th roots of unity form one Galois orbit of phi(d) roots,
which sums to mu(d).  A root of unity is handled as an exponent of a
fixed order wherever it occurs (centralizers), so no root type lives
here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

__all__ = ["totient_moebius", "orbit_sum"]


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


def orbit_sum(bucket: dict[int, int], m: int) -> int:
    """The sum of count * zeta_m^e over the bucket (e -> count), which must
    be a union of whole Galois orbits: the exponents of each order
    d = m / gcd(e, m) all occur, with one count c_d, so the sum is the
    sum of c_d * mu(d).  The exponents are grouped by (d, count), and each
    group must hold all phi(d) exponents of its order; a bucket that is
    not such a union is irrational, or rational by cancellation alone,
    and is an internal error (AssertionError).
    """
    orbits: dict = {}
    for e, count in bucket.items():
        key = (m // gcd(e, m), count)
        orbits[key] = orbits.get(key, 0) + 1
    total = 0
    for (d, count), size in orbits.items():
        phi, mu = totient_moebius(d)
        if size != phi:
            raise AssertionError(f"irrational sum {bucket} (exponents mod {m})")
        total += count * mu
    return total
