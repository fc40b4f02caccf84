"""Dickson polynomials, power-map conjugates, and the explicit degree-4/5/7
functions, checked against their defining identities and prime sweeps."""

import time
from fractions import Fraction
from math import gcd

import pytest

from schurscope.exactalg import (
    PARSE_DEGREE_CAP,
    QQ,
    Poly,
    QuadElem,
    QuadField,
    RatFunc,
    legendre,
    poly_const,
    poly_x,
    primes_up_to,
)
from schurscope import funfam
from schurscope.funfam import (
    a4s4_function,
    cm7_function,
    dickson,
    redei,
    sporadic_degree5,
    sporadic_degree5_isogeny_identity,
)
from schurscope.projmap import sweep_prime


def redei_bijectivity_predicate(n, d, p):
    """Predicted bijectivity of the degree-n map of redei() on P^1(F_p).

    The map is conjugate to Z -> Z^n on a cyclic group of order p - chi(d, p)
    (chi the quadratic character), so for prime n it permutes exactly when n
    does not divide that order.  For n = 3 this is the condition that p stays
    inert in Q(sqrt(-3 d)).  Implemented for n in {3, 5}.
    """
    if p < 3:
        raise ValueError("p must be an odd prime")
    d = Fraction(d)
    dn = d.numerator * d.denominator
    if dn % p == 0 or d.denominator % p == 0:
        raise ValueError(f"p = {p} is a bad prime for d = {d}")
    if n == 3:
        m = -3 * dn
        return legendre(m, p) == -1
    if n == 5:
        return gcd(5, p - legendre(dn, p)) == 1
    raise NotImplementedError("predicate implemented for n in {3, 5} only")


def a4s4_branch_identity(p, q):
    """Check f(X) - l == (X^2 - 2lX - 2l^2 - p)^2 / (4(X^3+pX+q)) symbolically
    for l a root of X^3 + pX + q, working in Q[l] modulo that cubic.
    Returns True when the identity holds."""
    f = funfam.a4s4_function(p, q)
    p, q = Fraction(p), Fraction(q)
    cubic = [q, p, Fraction(0), Fraction(1)]  # l^3 + p l + q
    # bivariate polynomials: list over X-degree of Poly(QQ) in l
    lam = Poly(QQ, [0, 1])
    one = Poly(QQ, [1])

    def reduce_l(poly):
        return poly % Poly(QQ, cubic)

    def biv_mul(a, b):
        out = [Poly(QQ, [0])] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = reduce_l(out[i + j] + ai * bj)
        return out

    def biv_sub(a, b):
        n = max(len(a), len(b))
        z = Poly(QQ, [0])
        a = list(a) + [z] * (n - len(a))
        b = list(b) + [z] * (n - len(b))
        return [reduce_l(x - y) for x, y in zip(a, b)]

    # s = X^2 - 2lX - (2l^2 + p)
    s = [-(2 * lam * lam + p * one), -2 * lam, one]
    # f's denominator is monic: put back the factor 4 it took out
    lhs = [Poly(QQ, [4 * c]) for c in f.num.coeffs]
    den = [Poly(QQ, [4 * c]) for c in f.den.coeffs]
    lhs = biv_sub(lhs, biv_mul([lam], den))  # num - l*den
    rhs = biv_mul(s, s)
    return all(c.is_zero() for c in biv_sub(lhs, rhs))


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


def recurrence_dickson(n, a):
    """D_n(a, X) by the three-term recurrence D_n = X D_(n-1) - a D_(n-2),
    from D_0 = 2 and D_1 = X."""
    a = Fraction(a)
    x = poly_x(QQ)
    prev = poly_const(QQ, Fraction(2))  # D_0
    cur = x                             # D_1
    for _ in range(n - 1):
        prev, cur = cur, x * cur - a * prev
    poly = cur if n > 1 else x
    return RatFunc(poly, poly_const(QQ, Fraction(1)))


def test_dickson_closed_form_matches_the_recurrence():
    for a in (1, 2, -3, Fraction(1, 2)):
        for n in range(1, 41):
            assert dickson(n, a) == recurrence_dickson(n, a), (n, a)


def test_dickson_at_the_degree_cap_and_above():
    start = time.perf_counter()
    f = dickson(PARSE_DEGREE_CAP, 1)
    assert time.perf_counter() - start < 1
    # D_n(1, X) = 2 T_n(X / 2): X^n - n X^(n-2) + ... + 2 (-1)^(n/2) for even n
    c = f.num.coeffs
    assert f.degree == PARSE_DEGREE_CAP and f.den.degree == 0
    assert (c[-1], c[-3], c[0]) == (1, -PARSE_DEGREE_CAP, 2)
    with pytest.raises(ValueError, match="exceeds cap"):
        dickson(PARSE_DEGREE_CAP + 1, 1)


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
