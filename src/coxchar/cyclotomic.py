"""Galois orbits of roots of unity: their size and sum, and the sum of
one power of every root in an orbit.

The primitive q-th roots of unity form one Galois orbit of phi(q) roots,
which sums to mu(q), and their a-th powers sum to the Ramanujan sum
c_q(a), a rational integer.  The class sums of a centralizer family are
such sums, one per orbit of twists (centralizers), so the library forms
no root of unity.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

__all__ = ["totient_moebius", "ramanujan"]


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


def ramanujan(q: int, a: int) -> int:
    """The Ramanujan sum c_q(a): the sum of the a-th powers of the
    primitive q-th roots of unity, mu(q/d) phi(q) / phi(q/d) with
    d = gcd(a, q) (Hoelder's formula)."""
    phi, mu = totient_moebius(q // gcd(a, q))
    return mu * totient_moebius(q)[0] // phi
