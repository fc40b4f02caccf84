"""Short-Weierstrass elliptic curves over exact fields and prime fields:
group law, division polynomials, the rational map induced on x by
multiplication, and the quotient descents that turn curve endomorphisms into
rational functions on the projective line."""

from __future__ import annotations

from math import gcd

from .exactalg import Poly, RatFunc, legendre, poly_const, poly_x, sqrt_mod

DIVPOLY_CAP = 30


class OffCurve(ValueError):
    pass


class EllCurve:
    """y^2 = x^3 + a x + b over a field from exactalg (or QQ)."""

    def __init__(self, field, a, b):
        self.field = field
        self.a = field.coerce(a)
        self.b = field.coerce(b)
        disc = -(field.coerce(16)) * (4 * self.a * self.a * self.a
                                      + 27 * self.b * self.b)
        if not disc:
            raise ValueError("singular curve: discriminant is zero")
        self.disc = disc

    def rhs(self, x):
        return x * x * x + self.a * x + self.b

    def on_curve(self, P):
        if P is None:
            return True
        x, y = P
        return y * y == self.rhs(x)

    def __repr__(self):
        return f"EllCurve(a={self.a!r}, b={self.b!r})"


def point_neg(P):
    if P is None:
        return None
    return (P[0], -P[1])


def point_add(E, P, Q):
    """Chord-tangent addition with None as the point at infinity."""
    if not (E.on_curve(P) and E.on_curve(Q)):
        raise OffCurve("point not on the curve")
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + E.a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def point_mul(E, m, P):
    """m*P by double-and-add; negative m allowed."""
    if m < 0:
        return point_mul(E, -m, point_neg(P))
    R = None
    Q = P
    while m:
        if m & 1:
            R = point_add(E, R, Q)
        Q = point_add(E, Q, Q)
        m >>= 1
    return R


# ---------------------------------------------------------------------------
# division polynomials

def division_polynomials(E, m):
    """The x-parts a_0..a_m of the division polynomials psi_0..psi_m, as a
    list indexed by k: psi_k = a_k(x) for odd k and psi_k = y * a_k(x) for
    even k.  By the standard recursion with y^2 eliminated via
    f = x^3 + ax + b."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m = {m}")
    if m > DIVPOLY_CAP:
        raise ValueError(f"index {m} exceeds cap {DIVPOLY_CAP}")
    K = E.field
    x = poly_x(K)
    a_, b_ = E.a, E.b
    f = x * x * x + a_ * x + poly_const(K, b_)
    one = poly_const(K, K.one)
    zero = poly_const(K, K.zero)
    a = [zero, one, poly_const(K, K.coerce(2)),
         3 * x ** 4 + 6 * a_ * x ** 2 + 12 * b_ * x - poly_const(K, a_ * a_),
         4 * (x ** 6 + 5 * a_ * x ** 4 + 20 * b_ * x ** 3
              - 5 * (a_ * a_) * x ** 2 - 4 * (a_ * b_) * x
              - poly_const(K, 8 * b_ * b_ + a_ * a_ * a_))]
    f2 = f * f
    half = K.one / K.coerce(2)
    for k in range(5, m + 1):
        j = k // 2
        if k % 2 == 1:
            # psi_{2j+1} = psi_{j+2} psi_j^3 - psi_{j-1} psi_{j+1}^3
            if j % 2 == 0:
                nxt = f2 * a[j + 2] * a[j] ** 3 - a[j - 1] * a[j + 1] ** 3
            else:
                nxt = a[j + 2] * a[j] ** 3 - f2 * a[j - 1] * a[j + 1] ** 3
        else:
            # psi_{2j} = psi_j (psi_{j+2} psi_{j-1}^2 - psi_{j-2} psi_{j+1}^2) / psi_2
            nxt = (a[j] * (a[j + 2] * a[j - 1] ** 2
                           - a[j - 2] * a[j + 1] ** 2)).scale(half)
        a.append(nxt)
    return a


def xmul_map(E, m):
    """The degree-m^2 rational function F with F(x(P)) = x(mP):
    x(mP) = x - psi_{m-1} psi_{m+1} / psi_m^2."""
    if m < 2:
        raise ValueError("need m >= 2")
    K = E.field
    a = division_polynomials(E, m + 1)
    x = poly_x(K)
    f = x * x * x + E.a * x + poly_const(K, E.b)
    if m % 2 == 1:
        num = x * a[m] ** 2 - f * a[m - 1] * a[m + 1]
        den = a[m] ** 2
    else:
        num = x * f * a[m] ** 2 - a[m - 1] * a[m + 1]
        den = f * a[m] ** 2
    F = RatFunc(num, den)
    if F.degree != m * m:
        raise AssertionError(f"x-multiplication map has degree {F.degree}, "
                             f"expected {m * m}")
    return F


# ---------------------------------------------------------------------------
# quotient descents

class DescentError(ArithmeticError):
    """Residual terms survive where the quotient symmetry says they must
    vanish; signals an implementation or hypothesis error."""


def _in_powers(poly, k):
    """Rewrite p(x) as q(x^k); error if a term of degree not divisible by k
    survives."""
    coeffs = poly.coeffs
    if any(c for i, c in enumerate(coeffs) if i % k):
        raise DescentError(f"terms outside the powers of x^{k} survive")
    return Poly(poly.field, list(coeffs[0::k]))


def _descend_to_y(E, m):
    """For y^2 = x^3 + B, express y(mP) as a function of y alone: returns
    (W, N), Polys in t = y^2, with y(mP) = y * W(y^2) / N(y^2) for odd m and
    y(mP) = W(y^2) / (y^3 N(y^2)) for even m, in lowest terms.

    From y(mP) = omega_m / psi_m^3, where
    4 y omega_m = psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2
    (psi_{-1} = -psi_1): in x-parts, y(mP) is y^(+1 or -3) times
    (a_{m+2} a_{m-1}^2 - a_{m-2} a_{m+1}^2) / (4 a_m^3). That fraction is
    invariant under x -> omega x, so its numerator and denominator are
    polynomials in x^3 = t - B."""
    if E.a:
        raise ValueError("curve must have the shape y^2 = x^3 + B")
    a = division_polynomials(E, m + 2)
    a.append(-a[1])  # a[-1] is psi_{-1}, read at m = 1
    q = RatFunc(a[m + 2] * a[m - 1] ** 2 - a[m - 2] * a[m + 1] ** 2,
                4 * a[m] ** 3)
    x3 = poly_x(E.field) - poly_const(E.field, E.b)
    return (_in_powers(q.num, 3).compose(x3), _in_powers(q.den, 3).compose(x3))


def quotient_descent(E, m, beta_order):
    """The rational function R with R(psi(P)) = psi(m P) on the quotient of E
    by an automorphism of order beta_order, where psi is x (order 2),
    y (order 3, curve y^2=x^3+B), x^2 (order 4, curve y^2=x^3+Ax), or
    y^2 (order 6, curve y^2=x^3+B).  deg R = m^2."""
    if beta_order not in (2, 3, 4, 6):
        raise ValueError("beta_order must be one of 2, 3, 4, 6")
    if m < 1:
        raise ValueError(f"need m >= 1, got m = {m}")
    if gcd(m, beta_order) != 1:
        raise ValueError(f"m = {m} must be coprime to the automorphism "
                         f"order {beta_order}")

    if beta_order == 2:
        return xmul_map(E, m)

    z = poly_x(E.field)
    if beta_order == 3:
        w, norm = (p.compose(z * z) for p in _descend_to_y(E, m))
        R = RatFunc(z * w, norm) if m % 2 else RatFunc(w, z ** 3 * norm)
    elif beta_order == 6:
        # z*w^2 and norm^2 are coprime: w and the monic norm are, and m is
        # odd, so E[m] has no point with y = 0 and norm(0) != 0. A common
        # factor would fail the degree check below
        w, norm = _descend_to_y(E, m)
        R = RatFunc._raw(z * w * w, norm * norm)
    else:
        # psi = x^2 on y^2 = x^3 + Ax
        if E.b:
            raise ValueError("curve must have the shape y^2 = x^3 + Ax")
        F = xmul_map(E, m)
        if RatFunc(F.num.compose(-z), F.den.compose(-z)) != -F:
            raise DescentError("x-multiplication map is not odd on y^2 = x^3 + Ax")
        F2 = F * F
        R = RatFunc(_in_powers(F2.num, 2), _in_powers(F2.den, 2))
    if R.degree != m * m:
        raise DescentError(f"order-{beta_order} descent degree {R.degree} "
                           f"!= {m * m}")
    return R


# ---------------------------------------------------------------------------
# numeric verification helpers over F_p

def random_point(E, rng):
    """A uniformly-ish random affine point on E over F_p (by rejection)."""
    K = E.field
    p = K.p
    while True:
        xv = rng.randrange(p)
        x = K.from_int(xv)
        r = E.rhs(x)
        if not r:
            return (x, K.zero)
        if legendre(r.v, p) == 1:
            y = K.from_int(sqrt_mod(r.v, p))
            return (x, y)
