"""Exact arithmetic kernel: primes, symbols, polynomials, rational functions,
and reduction modulo a prime place."""

import itertools
import operator
import random
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurscope import exactalg, projmap
from schurscope.cli import builtin_function
from schurscope.exactalg import (
    QQ,
    BadReduction,
    FieldMismatch,
    FpElem,
    FqField,
    Poly,
    QuadElem,
    QuadField,
    RamifiedPlace,
    RatFunc,
    ZeroDenominator,
    _CERT_PRIMES,
    _certificate_places,
    _resultant,
    format_ratfunc,
    legendre,
    parse_poly,
    parse_ratfunc,
    poly_const,
    poly_x,
    primes_up_to,
    reduce_mod_place,
    sqrt_mod,
    squarefree_part,
)


def test_primes_up_to_oracle():
    def is_prime(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert primes_up_to(200) == [n for n in range(201) if is_prime(n)]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_legendre_matches_the_squares():
    for p in primes_up_to(60)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            want = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert legendre(a, p) == want, (a, p)


def test_legendre_multiplicative():
    rng = random.Random(1)
    odd_primes = primes_up_to(60)[1:]
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        p = rng.choice(odd_primes)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_sqrt_mod():
    for p in primes_up_to(80):
        if p == 2:
            continue
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(-500, 500)
        if n == 0:
            continue
        s = squarefree_part(n)
        q = n // s
        assert q > 0 and n == s * q
        r = int(q ** 0.5 + 0.5)
        assert r * r == q


@st.composite
def rational_polys(draw, max_deg=6):
    coeffs = draw(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=9),
                           min_size=1, max_size=max_deg + 1))
    return Poly(QQ, coeffs)


@given(rational_polys(), rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_poly_divmod_roundtrip(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(rational_polys(max_deg=4), rational_polys(max_deg=4),
       rational_polys(max_deg=3))
@settings(max_examples=40, deadline=None)
def test_poly_gcd_divides_both(a, b, m):
    # force a common factor m into both
    a, b = a * m, b * m
    if a.is_zero() or b.is_zero():
        return
    g = a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()
    if not m.is_zero() and m.degree > 0:
        assert g.degree >= m.degree


def test_poly_eval_compose():
    x = poly_x(QQ)
    f = x ** 3 - 2 * x + poly_const(QQ, Fraction(5))
    g = x * x + poly_const(QQ, Fraction(1))
    h = f.compose(g)
    for v in (Fraction(0), Fraction(3), Fraction(-7, 2)):
        assert h.eval(v) == f.eval(g.eval(v))


def test_ratfunc_normalization_and_equality():
    x = poly_x(QQ)
    one = poly_const(QQ, Fraction(1))
    f = RatFunc((x * x - one) * (x - 2 * one), (x - one) * (x + 3 * one))
    g = RatFunc((x + one) * (x - 2 * one), x + 3 * one)
    assert f == g
    assert f.den.coeffs[-1] == 1  # monic denominator after normalization


def test_ratfunc_field_ops():
    x = poly_x(QQ)
    one = poly_const(QQ, Fraction(1))
    f = RatFunc(x * x + one, x)
    g = RatFunc(x - one, x + one)
    s = f + g
    for v in (Fraction(2), Fraction(5, 3), Fraction(-4)):
        assert s.eval(v) == f.eval(v) + g.eval(v)
        assert (f * g).eval(v) == f.eval(v) * g.eval(v)
        assert (f / g).eval(v) == f.eval(v) / g.eval(v)
    assert f.compose(g).eval(Fraction(3)) == f.eval(g.eval(Fraction(3)))


def test_ratfunc_derivative_quotient_rule():
    x = poly_x(QQ)
    one = poly_const(QQ, Fraction(1))
    f = RatFunc(x ** 3 + one, x * x - 2 * one)
    g = RatFunc(x + one, x - one)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


# -- the oracles of the certificate and of compose: the constructor that
# always runs the exact Euclid, and compose by Horner over RatFuncs

def euclid_ratfunc(num, den):
    """num/den in lowest terms by Poly.gcd, den monic."""
    if num.is_zero():
        return RatFunc._raw(num, Poly(num.field, [num.field.one]))
    g = num.gcd(den)
    if g.degree > 0:
        num = num // g
        den = den // g
    inv = num.field.one / den.coeffs[-1]
    return RatFunc._raw(num.scale(inv), den.scale(inv))


def horner_compose(f, g):
    """f(g(X)) by Horner over RatFuncs, every product and quotient reduced
    by the exact Euclid."""
    with mock.patch.object(exactalg, "_coprime_at_a_prime",
                           lambda num, den: False):
        g = f._as_ratfunc(g)
        one = Poly(f.field, [f.field.one])
        accn = RatFunc(Poly(f.field, []), one)
        for c in reversed(f.num.coeffs):
            accn = accn * g + f._as_ratfunc(c)
        accd = RatFunc(Poly(f.field, []), one)
        for c in reversed(f.den.coeffs):
            accd = accd * g + f._as_ratfunc(c)
        return accn / accd


_P0 = _CERT_PRIMES[0]
# squarefree d that are not squares mod the first certificate prime, so that
# the certificate runs at a later one
_NONSPLIT_D = [d for d in (-7, -3, -1, 2, 3, 5, 6, 7, 10, 11)
               if legendre(d, _P0) == -1]


def _scalars_over(K):
    """Small scalars of K, often integers, so that num and den share
    factors; over QQ and QQ(sqrt(d)) some are multiples of _P0 or have a
    denominator _P0, so that the first certificate prime is inadmissible."""
    if isinstance(K, FqField):
        return st.integers(0, K.p - 1).map(K.from_int)
    base = st.one_of(st.integers(-6, 6), st.sampled_from([_P0, -2 * _P0]),
                     st.fractions(-5, 5, max_denominator=3),
                     st.just(Fraction(1, _P0))).map(Fraction)
    if K == QQ:
        return base
    return st.builds(lambda a, b: QuadElem(a, b, K.d), base, base)


_FIELDS = [QQ, QuadField(_NONSPLIT_D[0]), QuadField(_NONSPLIT_D[1]),
           FqField(7), FqField(13)]


def _draw_pair(draw, K, size):
    """(num, den) over K, of at most size coefficients each, den nonzero,
    with a common factor of degree 0 to 2 multiplied into both."""
    scalar = _scalars_over(K)

    def poly(max_size):
        return Poly(K, draw(st.lists(scalar, min_size=1, max_size=max_size)))

    num, den, common = poly(size), poly(size), poly(3)
    if den.is_zero():
        den = Poly(K, [K.one])
    if not common.is_zero():
        num, den = num * common, den * common
    return num, den


@st.composite
def _poly_pairs(draw):
    return _draw_pair(draw, draw(st.sampled_from(_FIELDS)), 6)


@st.composite
def _composable_pairs(draw):
    K = draw(st.sampled_from(_FIELDS))
    return _draw_pair(draw, K, 3), _draw_pair(draw, K, 3)


def test_nonsplit_d_run_the_certificate_at_a_later_prime():
    for d in _NONSPLIT_D[:2]:
        places = _certificate_places(d)
        assert places and places[0][0] != _P0


@given(_poly_pairs())
@example((poly_x(QQ), poly_x(QQ) + poly_const(QQ, Fraction(_P0))))
# a common factor whose leading coefficient vanishes mod p0: the certificate
# may not use p0, where the images are coprime
@example(((poly_x(QQ) * _P0 + poly_const(QQ, Fraction(1)))
          * (poly_x(QQ) + poly_const(QQ, Fraction(2))),
          (poly_x(QQ) * _P0 + poly_const(QQ, Fraction(1)))
          * (poly_x(QQ) + poly_const(QQ, Fraction(3)))))
@settings(max_examples=200, deadline=None)
def test_ratfunc_equals_the_always_euclid_constructor(pair):
    num, den = pair
    assert RatFunc(num, den) == euclid_ratfunc(num, den)


@given(_composable_pairs())
@settings(max_examples=80, deadline=None)
def test_compose_equals_horner_over_ratfuncs(pairs):
    f, g = (euclid_ratfunc(*pair) for pair in pairs)
    try:
        want = horner_compose(f, g)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            f.compose(g)
        return
    assert f.compose(g) == want


def test_unlucky_prime_still_gives_lowest_terms(monkeypatch):
    """x / (x + p0) is coprime over QQ but not mod p0: the certificate fails
    there and the exact Euclid decides."""
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    x, p0 = poly_x(QQ), poly_const(QQ, Fraction(_P0))
    f = RatFunc(x, x + p0)
    assert (f.num, f.den) == (x, x + p0)
    assert len(calls) == 1
    # and a true common factor, divided out
    f = RatFunc((x + p0) * (x - p0), (x + p0) * x)
    assert (f.num, f.den) == (x - p0, x)


def test_dense_coprime_degree_100_pair_takes_no_exact_gcd(monkeypatch):
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rng = random.Random(100)
    num = Poly(QQ, [rng.randint(1, 9) for _ in range(101)])
    den = Poly(QQ, [rng.randint(1, 9) for _ in range(101)])
    f = RatFunc(num, den)
    assert calls == []
    assert f.num * den == f.den * num and f.den.coeffs[-1] == 1
    K = QuadField(_NONSPLIT_D[0])
    num = Poly(K, [QuadElem(Fraction(rng.randint(1, 9)),
                            Fraction(rng.randint(-3, 3)), K.d)
                   for _ in range(41)])
    RatFunc(num, Poly(K, list(reversed(num.coeffs))) + K.one)
    assert calls == []


def test_compose_at_a_pole_raises_zero_denominator():
    x, one = poly_x(QQ), poly_const(QQ, Fraction(1))
    with pytest.raises(ZeroDenominator):
        RatFunc(one, x).compose(0)
    with pytest.raises(ZeroDenominator):
        RatFunc(x * x, (x - one) * (x + 2 * one)).compose(-2)
    assert RatFunc(x - one, x).compose(1) == RatFunc(Poly(QQ, []), one)


# sqrt(-3) in QQ(sqrt(-3))
_SQRT_M3 = QuadElem(Fraction(0), Fraction(1), -3)


def test_quadfield_arithmetic():
    K = QuadField(-3)
    s = _SQRT_M3
    assert s * s == K.coerce(-3)
    w = (K.coerce(-1) + s) / K.coerce(2)  # primitive cube root of unity
    assert w * w * w == K.one
    assert w * w + w + K.one == K.zero
    a = QuadElem(Fraction(2), Fraction(5, 3), -3)
    assert a * a.inverse() == K.one
    assert a + QuadElem(a.a, -a.b, a.d) == K.coerce(4)
    # a polynomial on the right takes the scalar through its own operators
    y = poly_x(K)
    assert a * y == y * a and a + y == y + a


def test_quadratic_fields_over_q_and_fp_do_not_mix():
    # F_5^2 and F_11^2 are F_p(sqrt(2)), and QQ(sqrt(2)) has the same d = 2
    F5, F11, K = FqField(5, ext=2), FqField(11, ext=2), QuadField(2)
    assert F5.r == F11.r == K.d
    # 1 + 2*sqrt(2) in each, F_p^2 enumerated as u + v*sqrt(r) at u*p + v
    x5, x11 = F5.elements()[5 + 2], F11.elements()[11 + 2]
    k = QuadElem(Fraction(1), Fraction(2), 2)
    for y in (x5, x11):
        with pytest.raises(FieldMismatch):
            K.coerce(y)
        with pytest.raises((FieldMismatch, TypeError)):
            y + k
        with pytest.raises((FieldMismatch, TypeError)):
            k * y
        assert y != k
    with pytest.raises(FieldMismatch):
        F5.coerce(k)
    with pytest.raises(FieldMismatch):
        F5.coerce(x11)
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(FieldMismatch):
            op(x5, x11)
    assert x5 + F5.from_int(1) == F5.elements()[2 * 5 + 2]


def test_fp_elem_arithmetic_matches_residues():
    p, q = 7, 11
    for u, v in itertools.product(range(-8, 9), repeat=2):
        a, b = FpElem(u, p), FpElem(v, p)
        for op in (operator.add, operator.sub, operator.mul):
            want = op(u, v) % p
            for got in (op(a, b), op(a, v), op(u, b)):
                assert type(got) is FpElem and (got.v, got.p) == (want, p)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatch):
            op(FpElem(3, p), FpElem(3, q))
        with pytest.raises(TypeError):
            op(FpElem(3, p), Fraction(1, 2))


def test_fq2_is_a_field():
    F = FqField(7, ext=2)
    els = F.elements()
    assert len(els) == 49
    for a in els:
        if a:
            assert a * a.inverse() == F.one
    # Frobenius x -> x^7 fixes exactly F_7, the elements with no sqrt(r) part
    def seventh_power(a):
        a2 = a * a
        a3 = a2 * a
        return a3 * a3 * a

    fixed = [a for a in els if seventh_power(a) == a]
    assert len(fixed) == 7
    assert all(not a.b for a in fixed)


def test_reduce_mod_place_good_prime():
    x = poly_x(QQ)
    f = RatFunc(x ** 3 + poly_const(QQ, Fraction(1, 5)), x + poly_const(QQ, Fraction(2)))
    fp = reduce_mod_place(f, 7)
    assert fp.field.order == 7
    # 1/5 = 3 mod 7
    assert fp.num.eval(fp.field.from_int(0)) == fp.field.from_int(3)


def test_reduce_mod_place_bad_and_ramified():
    x = poly_x(QQ)
    f = RatFunc(x ** 2 + poly_const(QQ, Fraction(1, 5)), x)
    with pytest.raises(BadReduction):
        reduce_mod_place(f, 5)  # denominator of 1/5 vanishes
    # shared factor mod 3: (x-1)(x+2) = x^2+x-2 and x+2 share x+2 mod any p,
    # so use a pair that only collides mod 3
    g = RatFunc(x * x + poly_const(QQ, Fraction(2)), x + poly_const(QQ, Fraction(1)))
    # x=-1 is a root of num mod 3 (1+2=3), so num/den share x+1 mod 3
    with pytest.raises(BadReduction):
        reduce_mod_place(g, 3)
    K = QuadField(-3)
    y = poly_x(K)
    h = RatFunc(y + poly_const(K, _SQRT_M3), poly_const(K, K.one))
    with pytest.raises(RamifiedPlace):
        reduce_mod_place(h, 3)  # 3 | 2d


def test_reduce_mod_place_split_vs_inert():
    K = QuadField(-3)
    y = poly_x(K)
    f = RatFunc(y + poly_const(K, _SQRT_M3), poly_const(K, K.one))
    split = reduce_mod_place(f, 13)   # -3 is a square mod 13
    assert split.field.ext == 1
    inert = reduce_mod_place(f, 5)    # -3 is not a square mod 5
    assert inert.field.ext == 2


def _slow_reduce(f, p):
    """Reduction through field objects and RatFunc's own gcd."""
    K = f.field
    if isinstance(K, QuadField):
        if (2 * K.d) % p == 0:
            raise RamifiedPlace(p)
        if legendre(K.d, p) == 1:
            F = FqField(p)
            r0 = sqrt_mod(K.d, p)
            root = F.from_int(min(r0, p - r0))
        else:
            F = FqField(p, ext=2)
            s = sqrt_mod(K.d * pow(F.r, -1, p), p)
            root = QuadElem(FpElem(0, p), FpElem(s, p), F.r)

        def red(c):
            return F.coerce(c.a) + F.coerce(c.b) * root
    else:
        F = FqField(p)
        red = F.coerce
    num = Poly(F, [red(c) for c in f.num.coeffs])
    den = Poly(F, [red(c) for c in f.den.coeffs])
    if num.degree < f.num.degree or den.degree < f.den.degree:
        raise BadReduction(p)
    if not num.is_zero() and num.gcd(den).degree > 0:
        raise BadReduction(p)
    return RatFunc(num, den)


def _reduction_outcome(reduce, f, p):
    try:
        return reduce(f, p)
    except (BadReduction, RamifiedPlace) as e:
        return type(e)


# mostly integers, so that most primes are good and num, den often share a
# factor mod p without sharing one over Q
_SMALL_SCALARS = st.one_of(st.integers(-20, 20).map(Fraction),
                           st.fractions(-9, 9, max_denominator=4))


@st.composite
def ratfuncs_to_reduce(draw):
    d = draw(st.sampled_from([None, None, -3, -1, 2, 5]))
    if d is None:
        K, scalar = QQ, _SMALL_SCALARS
    else:
        K = QuadField(d)
        scalar = st.builds(lambda a, b: QuadElem(a, b, d), _SMALL_SCALARS,
                           _SMALL_SCALARS)
    num = Poly(K, draw(st.lists(scalar, min_size=1, max_size=9)))
    den = Poly(K, draw(st.lists(scalar, min_size=1, max_size=9)))
    if den.is_zero():
        den = Poly(K, [1])
    return RatFunc(num, den)


@given(ratfuncs_to_reduce(), st.sampled_from([3, 5, 7, 11, 13]))
@settings(max_examples=200, deadline=None)
def test_reduce_mod_place_matches_object_reduction(f, p):
    assert _reduction_outcome(reduce_mod_place, f, p) == \
        _reduction_outcome(_slow_reduce, f, p)


def _inert_h():
    """A function over Q(sqrt(-3)) whose num and den are coprime over K but
    both vanish at sqrt(-3) mod 5, an inert place."""
    K = QuadField(-3)
    x, s = poly_x(K), poly_const(K, _SQRT_M3)
    return RatFunc((x - s) * (x + poly_const(K, K.one)),
                   x - s + poly_const(K, K.from_int(5)))


def test_reduce_mod_place_matches_object_reduction_over_q_sqrt_minus_3():
    from schurscope.funfam import cm7_function
    h = _inert_h()
    assert _reduction_outcome(reduce_mod_place, h, 5) is BadReduction
    for f in (cm7_function(1), h):
        for p in primes_up_to(200)[1:]:
            assert _reduction_outcome(reduce_mod_place, f, p) == \
                _reduction_outcome(_slow_reduce, f, p)


_ALL_BUILTINS = [
    "builtin:isogeny5", "builtin:cm7", "builtin:a4s4:0:2",
    "builtin:dickson:3:1", "builtin:dickson:5:1", "builtin:redei:3:-1",
    "builtin:redei:5:2", "builtin:redei3comp", "builtin:descent:0:2:5:6",
    "builtin:descent:3:0:3:4",
]


@pytest.mark.parametrize("name", _ALL_BUILTINS + ["h"])
def test_sweep_skips_exactly_the_primes_object_reduction_skips(
        monkeypatch, name):
    """The sweep's ramified and bad-reduction primes below 1000, decided by
    one resultant, against Poly.gcd over each residue field. With a point
    cap of 1, every good place is recorded as point-cap, unevaluated."""
    f = _inert_h() if name == "h" else builtin_function(name)
    primes = primes_up_to(1000)[1:]
    monkeypatch.setattr(projmap, "DEFAULT_POINT_CAP", 1)
    records = projmap.sweep_primes(f, primes)
    for r in records:
        want = _reduction_outcome(_slow_reduce, f, r.p)
        if r.verdict == "point-cap":
            assert isinstance(want, RatFunc), (name, r)
        else:
            skipped = {"ramified": RamifiedPlace,
                       "bad-reduction": BadReduction}
            assert skipped[r.verdict] is want, (name, r)


def _sylvester_determinant(a, b, d):
    """Res(a, b) as the determinant of the Sylvester matrix, by Fraction
    elimination over Q, or over Q(sqrt(d)) through QuadElem."""
    def elem(c):
        return (Fraction(c) if d is None
                else QuadElem(Fraction(c[0]), Fraction(c[1]), d))

    m, n = len(a) - 1, len(b) - 1
    zero = elem(0 if d is None else (0, 0))
    rows = [[zero] * i + [elem(c) for c in reversed(g)] + [zero] * (k - 1 - i)
            for g, k in ((a, n), (b, m)) for i in range(k)]
    det = elem(1 if d is None else (1, 0))
    for c in range(m + n):
        pivot = next((r for r in range(c, m + n) if rows[r][c]), None)
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        for r in range(c + 1, m + n):
            t = rows[r][c] / rows[c][c]
            rows[r] = [x - t * y for x, y in zip(rows[r], rows[c])]
    return det


@st.composite
def _resultant_cases(draw):
    """(a, b, d): rows of degree >= 1 over Z, or over Z[sqrt(d)] as pairs,
    with many zero entries, so that the PRS meets degree gaps."""
    d = draw(st.sampled_from([None, -3, -1, 2, 5]))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    if d is not None:
        entry = st.tuples(entry, entry)
    zero = 0 if d is None else (0, 0)
    lead = entry.filter(lambda c: c != zero)
    a = draw(st.lists(entry, min_size=1, max_size=7)) + [draw(lead)]
    b = draw(st.lists(entry, min_size=1, max_size=7)) + [draw(lead)]
    return a, b, d


@given(_resultant_cases())
# degree gaps: deg a - deg b = 4, then remainders that drop by 2 and by 3
@example(([1, 0, 0, 0, 0, 0, 1], [0, 1, 1], None))
@example(([1, 0, 0, 0, 0, 0, 0, 0, 1], [2, 0, 0, 0, 0, 1], None))
@example(([(1, 1), (0, 0), (0, 0), (0, 0), (2, -1)], [(0, 1), (3, 0)], -3))
@example(([(0, 1), (0, 0), (0, 0), (1, 0), (0, 0), (0, 0), (1, 1)],
          [(1, 0), (0, 0), (0, 0), (2, 0)], 5))
@example(([1, 2, 1], [1, 1], None))  # a shared factor: Res = 0
@example(([(1, 1), (1, 0)], [(2, 0), (0, 0), (1, 0)], -1))
@example(([(5, 2), (0, 0), (0, 1)], [(1, 3), (0, 2), (4, 0), (1, 1)], 2))
@settings(max_examples=120, deadline=None)
def test_resultant_matches_sylvester_determinant(case):
    a, b, d = case
    got = _resultant(a, b, d)
    want = _sylvester_determinant(a, b, d)
    if d is None:
        assert got == want
    else:
        assert QuadElem(Fraction(got[0]), Fraction(got[1]), d) == want


def test_parse_format_roundtrip():
    x = poly_x(QQ)
    f = RatFunc(3 * x ** 4 - 2 * x + poly_const(QQ, Fraction(1, 2)),
                x * x + poly_const(QQ, Fraction(7)))
    assert parse_ratfunc(format_ratfunc(f)) == f
    p = parse_poly("1 + 2*x + 5/3*x^4")
    assert list(p.coeffs) == [Fraction(1), Fraction(2), Fraction(0), Fraction(0), Fraction(5, 3)]


def test_parse_quadratic_scalars():
    f = parse_ratfunc("(1 + 2*sqrt(-3))*x / 1 + x^2")
    assert isinstance(f.field, QuadField) and f.field.d == -3
