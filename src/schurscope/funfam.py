"""Classical families of low-genus rational functions (power-conjugate
constructions and explicit sporadic maps), with the number-theoretic
predicates that decide when they permute P^1 over a prime field."""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from . import ellipt
from .exactalg import (
    PARSE_DEGREE_CAP,
    QQ,
    Poly,
    QuadElem,
    QuadField,
    RatFunc,
    parse_fraction,
    poly_const,
    poly_x,
)


def dickson(n, a):
    """Degree-n Dickson polynomial D_n(a, X), defined by
    D_n(a, Z + a/Z) = Z^n + (a/Z)^n, in closed form (Lidl-Mullen-Turnwald,
    Dickson Polynomials, ch. 2):
        D_n(a, X) = sum_{k <= n/2} n/(n-k) C(n-k, k) (-a)^k X^(n-2k),
    where n/(n-k) C(n-k, k) = C(n-k, k) + C(n-k-1, k-1) is an integer.
    Refuses n above PARSE_DEGREE_CAP, the degree cap of function text."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > PARSE_DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {PARSE_DEGREE_CAP}")
    a = Fraction(a)
    if a == 0:
        raise ValueError("need a != 0")
    coeffs = [Fraction(0)] * (n + 1)
    power = Fraction(1)  # (-a)^k
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = comb(n - k, k) * n // (n - k) * power
        power *= -a
    return RatFunc(Poly(QQ, coeffs), poly_const(QQ, Fraction(1)))


def _is_rational_square(d):
    num, den = d.numerator, d.denominator
    if num < 0:
        return False
    rn, rd = isqrt(num), isqrt(den)
    return rn * rn == num and rd * rd == den


def redei(n, d):
    """Degree-n rational function conjugate to the power map Z -> Z^n by
    (X - a)/(X + a) with a^2 = d.  Only even powers of a survive, so the
    coefficients are rational:
        R_n = sum_{k even} C(n,k) d^(k/2) X^(n-k)
              / sum_{k odd} C(n,k) d^((k-1)/2) X^(n-k).
    Refuses n above PARSE_DEGREE_CAP, the degree cap of function text.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("need odd n >= 1")
    if n > PARSE_DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {PARSE_DEGREE_CAP}")
    d = Fraction(d)
    if d == 0 or _is_rational_square(d):
        raise ValueError("d must be a nonzero non-square rational")
    num = [Fraction(0)] * (n + 1)
    den = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = Fraction(comb(n, k))
        if k % 2 == 0:
            num[n - k] = c * d ** (k // 2)
        else:
            den[n - k] = c * d ** ((k - 1) // 2)
    return RatFunc(Poly(QQ, num), Poly(QQ, den))


def a4s4_function(p, q):
    """The degree-4 function (X^4 - 2pX^2 - 8qX + p^2) / (4(X^3 + pX + q)).

    For each root l of the (separable) cubic, f - l is a square over the
    splitting field divided by the same denominator, which makes every
    finite branch point of cycle type (2,2).  It is also the x-coordinate
    duplication map of the curve y^2 = x^3 + px + q.
    """
    p, q = Fraction(p), Fraction(q)
    if -4 * p ** 3 - 27 * q ** 2 == 0:
        raise ValueError("the cubic X^3 + pX + q must be separable")
    x = poly_x(QQ)
    num = x ** 4 - 2 * p * x ** 2 - 8 * q * x + poly_const(QQ, p * p)
    den = 4 * (x ** 3 + p * x + poly_const(QQ, q))
    return RatFunc(num, den)


def sporadic_degree5():
    """The degree-5 isogeny-derived function
    X(11X^4 + 40X^3 + 10X^2 - 40X - 5) / (5X^2 - 1)^2."""
    x = poly_x(QQ)
    num = x * (11 * x ** 4 + 40 * x ** 3 + 10 * x ** 2 - 40 * x
               - poly_const(QQ, Fraction(5)))
    den = (5 * x ** 2 - poly_const(QQ, Fraction(1))) ** 2
    return RatFunc(num, den)


def sporadic_degree5_isogeny_identity():
    """The defining identity q2(f(X)) = q1(X) * (f'(X)/5)^2 with
    q1 = 11X^3 - 5X^2 - 3X - 1 and q2 = X^3 - 5X^2 + 7X - 1;
    it exhibits f as an isogeny Y^2 = q1(X) -> Y^2 = q2(X) of degree 5."""
    f = sporadic_degree5()
    x = poly_x(QQ)
    q1 = 11 * x ** 3 - 5 * x ** 2 - 3 * x - poly_const(QQ, Fraction(1))
    q2 = x ** 3 - 5 * x ** 2 + 7 * x - poly_const(QQ, Fraction(1))
    q2f = RatFunc(q2, poly_const(QQ, Fraction(1))).compose(f)
    fp = f.derivative() / RatFunc(poly_const(QQ, Fraction(5)),
                                  poly_const(QQ, Fraction(1)))
    rhs = RatFunc(q1, poly_const(QQ, Fraction(1))) * fp * fp
    return q2f == rhs


def cm7_function(B):
    """The degree-7 endomorphism quotient on y-coordinates of y^2 = x^3 + B
    over Q(sqrt(-3)), w = (-1 + sqrt(-3))/2 a primitive cube root of unity:

        R(Y) = (1-18w)(Y^6 + (9+108w)B Y^4 + (459+216w)B^2 Y^2
               - (405+324w)B^3) Y / (7Y^2 - (3-12w)B)^3
    """
    K = QuadField(-3)

    def w_lin(a, b):
        # a + b*w = (a - b/2) + (b/2) sqrt(-3)
        return QuadElem(Fraction(a) - Fraction(b, 2), Fraction(b, 2), -3)

    B = K.coerce(B)
    if not B:
        raise ValueError("need B != 0")
    y = poly_x(K)
    one = poly_const(K, K.one)
    num = (y ** 6 + poly_const(K, w_lin(9, 108) * B) * y ** 4
           + poly_const(K, w_lin(459, 216) * B * B) * y ** 2
           - poly_const(K, w_lin(405, 324) * B * B * B)) * y
    num = num.scale(w_lin(1, -18))
    den = (7 * y ** 2 - poly_const(K, w_lin(3, -12) * B) * one) ** 3
    return RatFunc(num, den)


# builtin:NAME[:ARG...] -> (accepted argument counts, constructor on the args)
_BUILTINS = {
    "isogeny5": ((0,), sporadic_degree5),
    "cm7": ((0, 1), lambda B="1": cm7_function(parse_fraction(B))),
    "dickson": ((2,), lambda n, a: dickson(int(n), parse_fraction(a))),
    "redei": ((2,), lambda n, d: redei(int(n), parse_fraction(d))),
    "a4s4": ((2,), lambda p, q: a4s4_function(parse_fraction(p),
                                              parse_fraction(q))),
    # R(psi(P)) = psi(mP) on y^2 = x^3 + ax + b modulo an automorphism of
    # order beta; beta = 2 is ellipt.xmul_map
    "descent": ((4,), lambda a, b, m, beta: ellipt.quotient_descent(
        ellipt.EllCurve(QQ, parse_fraction(a), parse_fraction(b)),
        int(m), int(beta))),
    # the composition of the three degree-3 maps with constant fields
    # Q(sqrt(-1)), Q(sqrt(-2)), Q(sqrt(2)): d = 3, 6, -6
    "redei3comp": ((0,),
                   lambda: redei(3, 3).compose(redei(3, 6)).compose(redei(3, -6))),
}


def builtin_function(name):
    """Resolve a builtin:NAME[:ARG...] name, such as builtin:dickson:3:1, to
    a RatFunc.  Raises ValueError on an unknown name or a wrong argument
    count."""
    parts = name.split(":")
    if parts[0] != "builtin" or len(parts) < 2 or parts[1] not in _BUILTINS:
        raise ValueError(f"unknown builtin function: {name}")
    counts, make = _BUILTINS[parts[1]]
    args = parts[2:]
    if len(args) not in counts:
        raise ValueError(f"builtin:{parts[1]} takes "
                         f"{' or '.join(map(str, counts))} arguments, "
                         f"got {len(args)}")
    return make(*args)
