from fractions import Fraction
from math import gcd

import pytest

from coxchar.cyclotomic import orbit_sum, totient_moebius
from oracles import (
    MINUS_ONE,
    ONE,
    Cyc,
    cyclotomic_polynomial,
    root,
    root_conj,
    root_mul,
    root_pow,
)


def test_root_normalization():
    assert root(2, 4) == (1, 2)
    assert root(4, 4) == (0, 1)
    assert root(-1, 4) == (3, 4)
    assert root(3, 6) == (1, 2)


def test_root_arithmetic():
    z8 = root(1, 8)
    assert root_pow(z8, 8) == ONE
    assert root_pow(z8, 4) == MINUS_ONE
    assert root_mul(root(1, 2), root(1, 3)) == root(5, 6)
    assert root_conj(root(1, 5)) == root(4, 5)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_totient_counts_coprime_residues_and_moebius_sums_to_delta():
    """phi(d) is the number of e < d prime to d, and the sum of mu(k)
    over the divisors k of d is 1 at d = 1 and 0 elsewhere."""
    for d in range(1, 2001):
        phi, _ = totient_moebius(d)
        assert phi == sum(1 for e in range(d) if gcd(e, d) == 1), d
        total = sum(totient_moebius(k)[1] for k in range(1, d + 1) if d % k == 0)
        assert total == (d == 1), d


def test_moebius_is_the_sum_of_the_primitive_roots():
    """mu(d) is the sum of the primitive d-th roots of unity, one Galois
    orbit of phi(d) roots, summed exactly."""
    for d in range(1, 61):
        phi, mu = totient_moebius(d)
        orbit = [root(e, d) for e in range(d) if gcd(e, d) == 1]
        assert len(orbit) == phi and all(r[1] == d for r in orbit)
        total = Cyc.zero()
        for r in orbit:
            total = total + Cyc.from_root(r)
        assert total.as_rational() == mu, d


def test_vanishing_sums():
    # 1 + zeta_3 + zeta_3^2 = 0
    total = Cyc.one() + Cyc.from_root(root(1, 3)) + Cyc.from_root(root(2, 3))
    assert total.is_zero()
    # zeta_5 + zeta_5^2 + zeta_5^3 + zeta_5^4 = -1
    total = Cyc.zero()
    for k in range(1, 5):
        total = total + Cyc.from_root(root(k, 5))
    assert total == Cyc.from_rational(-1)
    assert total.as_rational() == Fraction(-1)


def test_mixed_order_equality():
    # zeta_6 = 1 + zeta_3  (primitive 6th root identity: zeta_6 - zeta_3 = 1)
    lhs = Cyc.from_root(root(1, 6)) - Cyc.from_root(root(1, 3))
    assert lhs == Cyc.one()


def test_rationality_detection():
    v = Cyc.from_root(root(1, 4))
    assert v.as_rational() is None
    w = v * v
    assert w.as_rational() == Fraction(-1)
    assert (v * v.conj()).as_rational() == Fraction(1)


def test_scale_and_str():
    v = Cyc.from_rational(Fraction(3, 2)).scale(2)
    assert v.as_rational() == 3
    assert str(v) == "3"
    assert str(Cyc.from_root(root(1, 8))) == "z8"
    assert str(Cyc.from_root(root(3, 8), -1)) == "-z8^3"


def test_products_distribute():
    a = Cyc.from_root(root(1, 3)) + Cyc.from_rational(2)
    b = Cyc.from_root(root(1, 4)) - Cyc.from_rational(1)
    c = Cyc.from_root(root(2, 3))
    assert ((a + c) * b) == (a * b + c * b)


def test_orbit_sum_reads_unions_of_orbits():
    """A bucket maps exponents e of zeta_m to counts: zeta_3 + zeta_3^2;
    3 - 1; 5 - 3 with -1 = zeta_12^6; the four primitive 12th roots twice,
    plus 1 and three times -1.  Only unions of whole Galois orbits are
    read: zeta_12 + zeta_12^5 + zeta_4^3 (= zeta_12^9) twice, plus 1, is
    rational (2(i - i) + 1 = 1) but not such a union, and no linear
    character's values on one code of a block cycle take it; the
    primitive 12th roots with unequal counts split their orbit; i is
    irrational."""
    assert orbit_sum({1: 1, 2: 1}, 3) == -1
    assert orbit_sum({0: 3, 1: 1}, 2) == 2
    assert orbit_sum({0: 5, 6: 3}, 12) == 2
    assert orbit_sum({1: 2, 5: 2, 7: 2, 11: 2, 0: 1, 6: 3}, 12) == -2
    with pytest.raises(AssertionError, match="irrational"):
        orbit_sum({1: 2, 5: 2, 9: 2, 0: 1}, 12)
    with pytest.raises(AssertionError, match="irrational"):
        orbit_sum({1: 1, 5: 1, 7: 1, 11: 2}, 12)
    with pytest.raises(AssertionError, match="irrational"):
        orbit_sum({1: 1}, 4)
