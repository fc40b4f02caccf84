"""Elliptic curve group law, division polynomials, x-multiplication maps,
quotient descents, and the fiber/ramification profiles that identify them."""

import random
from fractions import Fraction

import pytest

from schurscope import ellipt, funfam
from schurscope.exactalg import (QQ, FqField, Poly, RatFunc, poly_const,
                                 poly_x, reduce_mod_place)
from schurscope.ellipt import (
    DescentError,
    EllCurve,
    OffCurve,
    division_polynomials,
    point_add,
    point_mul,
    point_neg,
    quotient_descent,
    random_point,
    _descend_to_y,
    _in_powers,
    xmul_map,
)
from schurscope.claims import cm7_offenders, pointwise_offenders


def fiber_profiles(f):
    """Branch data of a rational function over F_p, which identifies
    xmul_map and the descents: for every value v in P^1(F_p) whose fiber is
    not squarefree, the multiset of point multiplicities (counting points
    over the algebraic closure). Returns {value: sorted multiplicities},
    with 'inf' for v = infinity."""
    K = f.field
    p = K.p
    if K.ext != 1:
        raise ValueError("prime fields only")
    deg = f.degree
    out = {}
    values = [K.from_int(v) for v in range(p)] + [None]
    for v in values:
        if v is None:
            h = f.den
        else:
            h = f.num - poly_const(K, v) * f.den
        mults = _multiplicity_profile(h)
        drop = deg - h.degree
        if drop > 0:
            mults = sorted(mults + [drop])
        if any(e > 1 for e in mults):
            out["inf" if v is None else v.v] = mults
    return out


def _multiplicity_profile(h):
    """Multiplicities of the roots of h over the closure, via repeated
    gcd with the derivative: if u_0 = h and u_{k+1} = gcd(u_k, u_k'), then
    deg u_k - deg u_{k+1} counts the distinct roots of multiplicity > k.
    Valid while the characteristic exceeds every multiplicity."""
    if h.degree <= 0:
        return []
    u = [h.monic()]
    while u[-1].degree > 0:
        if len(u) > 64:
            raise AssertionError("runaway multiplicity computation")
        u.append(u[-1].gcd(u[-1].derivative()))
    ge = [u[k].degree - u[k + 1].degree for k in range(len(u) - 1)]
    out = []
    for e in range(1, len(ge) + 1):
        exactly = ge[e - 1] - (ge[e] if e < len(ge) else 0)
        out.extend([e] * exactly)
    return sorted(out)


def small_curve(p=101, a=-18, b=1):
    return EllCurve(FqField(p), a % p, b % p)


def test_curve_validation():
    with pytest.raises(ValueError):
        EllCurve(QQ, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        EllCurve(QQ, Fraction(-3), Fraction(2))  # disc = 0


def test_group_law_basics():
    E = small_curve()
    rng = random.Random(0)
    P = random_point(E, rng)
    assert E.on_curve(P)
    assert point_add(E, P, None) == P
    assert point_add(E, P, point_neg(P)) is None
    bad = (E.field.from_int(0), E.field.from_int(5))
    if not E.on_curve(bad):
        with pytest.raises(OffCurve):
            point_add(E, bad, None)


def test_group_law_associative_commutative():
    E = small_curve()
    rng = random.Random(1)
    for _ in range(20):
        P, Q, R = (random_point(E, rng) for _ in range(3))
        assert point_add(E, P, Q) == point_add(E, Q, P)
        assert point_add(E, point_add(E, P, Q), R) == \
            point_add(E, P, point_add(E, Q, R))


def test_point_mul_matches_repeated_addition():
    E = small_curve()
    rng = random.Random(2)
    P = random_point(E, rng)
    acc = None
    for m in range(12):
        assert point_mul(E, m, P) == acc
        acc = point_add(E, acc, P)
    assert point_mul(E, -3, P) == point_neg(point_mul(E, 3, P))


def test_division_polynomial_roots_are_torsion():
    # the x-part of psi_m vanishes exactly at x-coords of nontrivial m-torsion
    E = small_curve(101, -18, 1)
    K = E.field
    dp = division_polynomials(E, 7)
    for m in (2, 3, 5, 7):
        xs = {v for v in range(101) if not dp[m].eval(K.from_int(v))}
        tor = set()
        for v in range(101):
            r = E.rhs(K.from_int(v))
            from schurscope.exactalg import legendre, sqrt_mod
            if not r:
                ys = [K.zero]
            elif legendre(r.v, 101) == 1:
                ys = [K.from_int(sqrt_mod(r.v, 101))]
            else:
                continue
            for y in ys:
                if point_mul(E, m, (K.from_int(v), y)) is None:
                    tor.add(v)
        # every rational m-torsion x is a root (roots over F_p^2 may add more)
        assert tor <= xs


def test_xmul_degree_and_equality_with_closed_formula():
    EQ = EllCurve(QQ, Fraction(0), Fraction(2))
    assert xmul_map(EQ, 2) == funfam.a4s4_function(0, 2)
    EQ2 = EllCurve(QQ, Fraction(-1), Fraction(3))
    assert xmul_map(EQ2, 2) == funfam.a4s4_function(-1, 3)
    for m in (2, 3, 4, 5):
        assert xmul_map(EQ, m).degree == m * m


def test_xmul_pointwise():
    for p in (101, 103, 107):
        E = small_curve(p, -18, 1)
        rng = random.Random(p)
        for m in (2, 3, 5):
            F = xmul_map(E, m)
            for _ in range(15):
                P = random_point(E, rng)
                Q = point_mul(E, m, P)
                d = F.den.eval(P[0])
                if Q is None:
                    assert not d
                else:
                    assert d and F.num.eval(P[0]) / d == Q[0]


def _check_descent_pointwise(a, b, m, beta_order, psi, beta_apply, primes):
    """R(psi(P)) == psi(mP) on random points mod several primes."""
    EQ = EllCurve(QQ, Fraction(a), Fraction(b))
    R = quotient_descent(EQ, m, beta_order)
    assert R.degree == m * m
    assert pointwise_offenders(R, a, b, lambda E, P: point_mul(E, m, P), psi,
                               primes, 20, m) == []


def test_descent_order_2():
    _check_descent_pointwise(-18, 1, 3, 2, lambda P: P[0], None,
                             (101, 103, 107))


def test_descent_order_3():
    # quotient by (x, y) -> (w x, y): psi = y, curve y^2 = x^3 + B
    _check_descent_pointwise(0, 2, 2, 3, lambda P: P[1], None,
                             (103, 109, 127))


def test_descent_order_4():
    # quotient by (x, y) -> (-x, iy): psi = x^2, curve y^2 = x^3 + Ax
    _check_descent_pointwise(3, 0, 3, 4, lambda P: P[0] * P[0], None,
                             (101, 103, 107))


def test_descent_order_6():
    # psi = y^2, curve y^2 = x^3 + B
    _check_descent_pointwise(0, 2, 5, 6, lambda P: P[1] * P[1], None,
                             (103, 109))


def test_descent_order_6_skips_no_common_factor():
    # the order-6 descent builds R without the gcd of RatFunc; the gcd
    # finds nothing to cancel
    EQ = EllCurve(QQ, Fraction(0), Fraction(2))
    w, norm = _descend_to_y(EQ, 5)
    z = poly_x(QQ)
    R = RatFunc(z * w * w, norm * norm)
    assert quotient_descent(EQ, 5, 6) == R and R.degree == 25


def psi_2m_descent(E, m, beta_order):
    """The order-3 or order-6 descent by the older route, as the oracle:
    y(mP) = psi_2m / (2 psi_m^4) with every division polynomial up to
    psi_2m, brought to lowest terms by RatFunc's gcd over Q."""
    x = poly_x(E.field)
    a = division_polynomials(E, 2 * m)
    f = x ** 3 + poly_const(E.field, E.b)
    q = RatFunc(a[2 * m], 2 * a[m] ** 4 * (f * f if m % 2 == 0 else 1))
    x3 = x - poly_const(E.field, E.b)
    w, norm = (_in_powers(p, 3).compose(x3) for p in (q.num, q.den))
    if beta_order == 3:
        return RatFunc(x * w.compose(x * x), norm.compose(x * x))
    return RatFunc(x * w * w, norm * norm)


_B = (2, 1, -3, Fraction(1, 2), 5, 7)
_GRID = [*((m, 3, _B) for m in (1, 2, 4, 5)),
         *((m, 6, _B) for m in (1, 5)),
         # the oracle's gcd costs 0.4-1.5 s at these m: one curve each
         (7, 3, (Fraction(1, 2),)), (8, 3, (2,)), (7, 6, (-3,))]


@pytest.mark.parametrize("m, beta_order, bs", _GRID,
                         ids=[f"{m}:{beta}" for m, beta, _ in _GRID])
def test_omega_descent_equals_the_psi_2m_route(m, beta_order, bs):
    for b in bs:
        E = EllCurve(QQ, Fraction(0), Fraction(b))
        R = quotient_descent(E, m, beta_order)
        want = psi_2m_descent(E, m, beta_order)
        assert R.num.coeffs == want.num.coeffs
        assert R.den.coeffs == want.den.coeffs


def test_omega_descents_take_no_gcd(monkeypatch):
    # y(mP) = omega_m / psi_m^3 is in lowest terms as built: RatFunc's
    # one-prime certificate passes, so no Euclid over Q runs
    calls, indices = [], []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    divpolys = ellipt.division_polynomials
    monkeypatch.setattr(ellipt, "division_polynomials",
                        lambda E, k: indices.append(k) or divpolys(E, k))
    E = EllCurve(QQ, Fraction(0), Fraction(2))
    R = {(m, beta): quotient_descent(E, m, beta)
         for m, beta in ((11, 3), (13, 6), (14, 3))}
    assert calls == [] and indices == [13, 15, 16]
    assert {k: f.degree for k, f in R.items()} == {
        (11, 3): 121, (13, 6): 169, (14, 3): 196}
    # 11:3 is out of the oracle's reach (psi_22 and a gcd of degree 60):
    # check it against the group law at one prime, p = 1 mod 3
    assert pointwise_offenders(R[11, 3], 0, 2,
                               lambda E, P: point_mul(E, 11, P),
                               lambda P: P[1], (103,), 20, 11) == []


def test_descent_validation():
    EQ = EllCurve(QQ, Fraction(0), Fraction(2))
    with pytest.raises(ValueError):
        quotient_descent(EQ, 3, 3)  # gcd(m, order) != 1
    with pytest.raises(ValueError):
        quotient_descent(EQ, 2, 5)
    with pytest.raises(ValueError):
        quotient_descent(EQ, 2, 4)  # needs b = 0
    # a negative m is refused before any polynomial work
    with pytest.raises(ValueError):
        division_polynomials(EQ, -1)
    with pytest.raises(ValueError, match="index 31 exceeds cap 30"):
        quotient_descent(EQ, 29, 3)  # needs psi_31
    for beta in (3, 6):
        with pytest.raises(ValueError):
            quotient_descent(EQ, -1, beta)
    EA = EllCurve(QQ, Fraction(3), Fraction(0))
    with pytest.raises(ValueError):
        quotient_descent(EA, 2, 3)  # needs a = 0


def test_verify_cm7():
    # one primitive cube root w of 1 mod p makes R(y(P)) = y(3P + (wx, y))
    assert not all(cm7_offenders(funfam.cm7_function(2), 2, 13))
    with pytest.raises(ValueError):
        cm7_offenders(funfam.cm7_function(1), 1, 11)  # 11 != 1 mod 3


def test_fiber_profiles_xmul2():
    # x-multiplication by 2 has three (2,2)-branch values (the roots of the
    # 2-division cubic); index sum 3 * 2 = 2(4 - 1) as genus 0 demands.
    # mod 109 the cubic splits, so all three are visible.
    EQ = EllCurve(QQ, Fraction(-18), Fraction(1))
    F = reduce_mod_place(xmul_map(EQ, 2), 109)
    prof = fiber_profiles(F)
    assert sorted(prof.values()) == [[2, 2], [2, 2], [2, 2]]


def test_fiber_profiles_ramification_types():
    # m = 3, order 2: type (2,2,2,2) -> profiles [1, 2, 2, 2, 2]
    EQ = EllCurve(QQ, Fraction(-18), Fraction(1))
    F = reduce_mod_place(quotient_descent(EQ, 3, 2), 109)
    prof = fiber_profiles(F)
    assert len(prof) == 4
    assert all(m == [1, 2, 2, 2, 2] for m in prof.values())
    # m = 2, order 3: type (3,3,3) -> profiles [1, 3]
    EB = EllCurve(QQ, Fraction(0), Fraction(2))
    F = reduce_mod_place(quotient_descent(EB, 2, 3), 103)
    prof = fiber_profiles(F)
    assert len(prof) == 3
    assert all(m == [1, 3] for m in prof.values())


def test_fiber_profiles_orders_4_and_6():
    # m = 3, order 4: type (2,4,4)
    EA = EllCurve(QQ, Fraction(3), Fraction(0))
    F = reduce_mod_place(quotient_descent(EA, 3, 4), 101)
    profs = sorted(fiber_profiles(F).values())
    assert profs == [[1, 2, 2, 2, 2], [1, 4, 4], [1, 4, 4]]
    # m = 5, order 6: type (2,3,6)
    EB = EllCurve(QQ, Fraction(0), Fraction(2))
    F = reduce_mod_place(quotient_descent(EB, 5, 6), 103)
    profs = sorted(fiber_profiles(F).values())
    mults = sorted(tuple(p) for p in profs)
    # one fiber ramified with index 2 everywhere but one point, one with 3,
    # one with 6
    shapes = []
    for m in mults:
        es = {e for e in m if e > 1}
        assert len(es) == 1
        shapes.append(es.pop())
    assert sorted(shapes) == [2, 3, 6]


def test_division_polynomial_constant_shape():
    # for y^2 = x^3 + B, psi_5 is a polynomial in x^3, and in the order-3
    # quotient variable t (x^3 = t - B) its constant term is 3^6 B^4
    for B in (1, 2, 3):
        E = EllCurve(QQ, Fraction(0), Fraction(B))
        q = _in_powers(division_polynomials(E, 5)[5], 3)
        t = poly_x(QQ)
        assert q.compose(t - poly_const(QQ, Fraction(B))).eval(0) == 3 ** 6 * B ** 4


def test_in_powers():
    x = poly_x(QQ)
    assert _in_powers(x ** 6 + 2 * x ** 3 + 5, 3) == x ** 2 + 2 * x + 5
    assert _in_powers(x ** 4 - x ** 2, 2) == x ** 2 - x
    with pytest.raises(DescentError):
        _in_powers(x ** 6 + x, 3)
    with pytest.raises(DescentError):
        _in_powers(x ** 4 + x ** 3, 2)


def test_verify_cm7_reads_cm7_function():
    # the identity is checked on the function given: one built for another B
    # leaves offenders for every cube root
    assert all(cm7_offenders(funfam.cm7_function(2), 1, 13))
