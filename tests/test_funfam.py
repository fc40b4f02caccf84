"""Dickson polynomials, power-map conjugates, and the explicit degree-4/5/7
functions, checked against their defining identities and prime sweeps."""

from fractions import Fraction
from math import gcd

import pytest

from schurscope.exactalg import (
    QQ,
    Poly,
    QuadElem,
    QuadField,
    RatFunc,
    poly_const,
    poly_x,
    primes_up_to,
)
from schurscope.funfam import (
    a4s4_branch_identity,
    a4s4_function,
    cm7_function,
    dickson,
    redei,
    redei_bijectivity_predicate,
    sporadic_degree5,
    sporadic_degree5_isogeny_identity,
)
from schurscope.projmap import sweep_prime


def test_dickson_defining_identity():
    # D_n(a, Z + a/Z) = Z^n + (a/Z)^n
    x = poly_x(QQ)
    one = poly_const(QQ, Fraction(1))
    for a in (Fraction(1), Fraction(2), Fraction(-3, 2)):
        sub = RatFunc(x * x + a * one, x)  # Z + a/Z
        for n in range(1, 9):
            lhs = dickson(n, a).compose(sub)
            rhs = RatFunc(x ** (2 * n) + (a ** n) * one, x ** n)
            assert lhs == rhs, (n, a)


def test_dickson_composition_rule():
    # D_m(a^n, D_n(a, X)) = D_mn(a, X)
    for a in (Fraction(1), Fraction(3)):
        for m, n in ((2, 3), (3, 3), (2, 5)):
            assert dickson(m, a ** n).compose(dickson(n, a)) == dickson(m * n, a)


def test_dickson_low_degrees():
    x = poly_x(QQ)
    one = poly_const(QQ, Fraction(1))
    a = Fraction(2)
    assert dickson(1, a) == RatFunc(x, one)
    assert dickson(2, a) == RatFunc(x * x - 2 * a * one, one)
    assert dickson(3, a) == RatFunc(x ** 3 - 3 * a * x, one)


def test_dickson_bijectivity_gcd_criterion():
    f = dickson(3, 1)
    for p in primes_up_to(200):
        if p == 2:
            continue
        rec = sweep_prime(f, p)
        if rec.verdict in ("bijective", "not-bijective"):
            assert (rec.verdict == "bijective") == (gcd(3, p * p - 1) == 1)


def test_redei_degree_and_validation():
    assert redei(3, 2).degree == 3
    assert redei(5, -1).degree == 5
    with pytest.raises(ValueError):
        redei(4, 2)  # even degree
    with pytest.raises(ValueError):
        redei(3, 4)  # square d
    with pytest.raises(ValueError):
        redei(3, 0)


def test_redei_power_map_conjugation():
    # with mu(X) = (X - a)/(X + a), a^2 = d: mu(R_n(X)) = mu(X)^n
    for d in (2, -1, 3):
        K = QuadField(d)
        a = QuadElem(Fraction(0), Fraction(1), d)
        y = poly_x(K)
        mu = RatFunc(y - poly_const(K, a), y + poly_const(K, a))
        for n in (3, 5, 7):
            f = redei(n, d)
            fk = RatFunc(Poly(K, f.num.coeffs), Poly(K, f.den.coeffs))
            lhs = mu.compose(fk)
            rhs = mu
            for _ in range(n - 1):
                rhs = rhs * mu
            assert lhs == rhs, (d, n)


def test_redei_predicate_matches_sweep():
    for n, d in ((3, 3), (3, -2), (5, 2), (5, -1)):
        f = redei(n, d)
        for p in primes_up_to(300):
            if p == 2:
                continue
            rec = sweep_prime(f, p)
            if rec.verdict not in ("bijective", "not-bijective"):
                continue
            assert (rec.verdict == "bijective") == \
                redei_bijectivity_predicate(n, d, p), (n, d, p)


def test_a4s4_function_and_branch_identity():
    f = a4s4_function(0, 2)
    assert f.degree == 4
    for p, q in ((0, 2), (1, 1), (-2, 1), (3, -5)):
        assert a4s4_branch_identity(p, q), (p, q)
    with pytest.raises(ValueError):
        a4s4_function(-3, 2)  # 4*27 = 108 = -disc, cubic not separable


def test_a4s4_branch_identity_reads_a4s4_function(monkeypatch):
    # the identity is checked on a4s4_function itself: a shifted copy fails
    monkeypatch.setattr("schurscope.funfam.a4s4_function",
                        lambda p, q: a4s4_function(p, q) + 1)
    assert not a4s4_branch_identity(0, 2)


def test_sporadic_degree5():
    f = sporadic_degree5()
    assert f.degree == 5
    assert sporadic_degree5_isogeny_identity()


def test_cm7_function():
    f = cm7_function(1)
    assert f.degree == 7
    assert isinstance(f.field, QuadField) and f.field.d == -3
    with pytest.raises(ValueError):
        cm7_function(0)


def test_cm7_scaling_covariance():
    # replacing B by c^6 B rescales: R_{c^6 B}(c^3 Y) = c^3 R_B(Y)
    K = QuadField(-3)
    y = poly_x(K)
    c = 2
    f1 = cm7_function(1)
    f2 = cm7_function(c ** 6)
    scale = RatFunc((c ** 3) * y, poly_const(K, K.one))
    assert f2.compose(scale) == scale.compose(f1)
