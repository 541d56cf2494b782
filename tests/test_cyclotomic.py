from fractions import Fraction

from coxchar.cyclotomic import (
    MINUS_ONE,
    ONE,
    cyclotomic_polynomial,
    root,
    root_mul,
    root_pow,
)
from oracles import Cyc, root_conj


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
