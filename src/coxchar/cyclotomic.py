"""The size and the sum of a Galois orbit of roots of unity.

The primitive d-th roots of unity form one Galois orbit of phi(d) roots,
which sums to mu(d); a sum of roots that is a union of whole orbits is
an integer, read off these two numbers alone.  A root of unity is handled
as an exponent of a fixed order wherever it occurs (characters,
classfunctions), so no root type lives here.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["totient_moebius"]


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
