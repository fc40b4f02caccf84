"""Exact arithmetic kernel: rationals, prime fields F_p, quadratic extensions
a + b*sqrt(d) of either (QQ(sqrt(d)), and F_p^2 = F_p(sqrt(r))), dense
univariate polynomials and rational functions.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction

_new = object.__new__


class ZeroDenominator(ZeroDivisionError):
    pass


class FieldMismatch(ValueError):
    pass


class BadReduction(ArithmeticError):
    """Reduction mod p dropped the degree or broke coprimality."""


class RamifiedPlace(ArithmeticError):
    """p divides d (or 2d); the place is ramified and must be skipped."""


# ---------------------------------------------------------------------------
# number-theory helpers

def primes_up_to(n):
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i in range(2, n + 1) if sieve[i]]


def kronecker(a, n):
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def sqrt_mod(a, p):
    """A square root of a mod odd prime p, or None. Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def squarefree_part(n):
    """n divided by its largest square factor (sign kept)."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2 == 1:
            out *= d
        d += 1
    return sign * out * n


# ---------------------------------------------------------------------------
# fields and scalars

class RationalField:
    """The rationals. Elements are Fraction."""

    ext = 1

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise FieldMismatch(f"cannot coerce {x!r} into QQ")


QQ = RationalField()


class QuadElem:
    """a + b*sqrt(d) in a quadratic extension of a base field, with d an
    integer that is not a square in the base: a, b are Fractions in
    QQ(sqrt(d)), and FpElems in F_p^2 = F_p(sqrt(r)) with d = r.

    The arithmetic is the base's own; the fields, the parser and funfam
    build the elements from base elements, so nothing is coerced here.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = a
        self.b = b
        self.d = d

    def _lift(self, other):
        """other as an element of this field: a QuadElem with the same d, or
        a scalar of the base (ints included), lifted as zero + other."""
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({other.d}) vs sqrt({self.d})")
            return other
        zero = self.b * 0
        a = zero + other
        # a polynomial or a rational function on the right absorbs the
        # scalar instead, through its reflected operator
        if type(a) is not type(zero):
            return NotImplemented
        return QuadElem(a, zero, self.d)

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a * o.a + self.d * self.b * o.b,
                        self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("zero quadratic element")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return not self.b and self.a == other

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


class QuadField:
    """Q(sqrt(d)) for squarefree d, not 0 or 1."""

    ext = 1

    def __init__(self, d):
        if d in (0, 1) or squarefree_part(d) != d:
            raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d

    def __repr__(self):
        return f"QQ(sqrt({self.d}))"

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.d == self.d

    def __hash__(self):
        return hash(("quad", self.d))

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return QuadElem(Fraction(n), Fraction(0), self.d)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return self.from_int(x)
        if isinstance(x, QuadElem) and x.d == self.d and isinstance(x.a, Fraction):
            return x
        raise FieldMismatch(f"cannot coerce {x!r} into {self!r}")


class FpElem:
    """Residue mod p. Sums, differences and products take the other
    operand's residue (`_value`) and skip `__init__`, with no FpElem made
    for an int operand: F_p^2 arithmetic in QuadElem makes millions."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _value(self, other):
        """The residue of an FpElem of the same p, or of an int."""
        if other.__class__ is FpElem:
            if other.p != self.p:
                raise FieldMismatch("different characteristics")
            return other.v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._value(other)
        if v is NotImplemented:
            return v
        out = _new(FpElem)
        out.v = (self.v + v) % self.p
        out.p = self.p
        return out

    __radd__ = __add__

    def __neg__(self):
        return FpElem(-self.v, self.p)

    def __sub__(self, other):
        v = self._value(other)
        if v is NotImplemented:
            return v
        out = _new(FpElem)
        out.v = (self.v - v) % self.p
        out.p = self.p
        return out

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        v = self._value(other)
        if v is NotImplemented:
            return v
        out = _new(FpElem)
        out.v = (self.v * v) % self.p
        out.p = self.p
        return out

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0")
        return FpElem(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        v = self._value(other)
        if v is NotImplemented:
            return v
        return self * FpElem(v, self.p).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, FpElem):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class FqField:
    """F_p (ext=1) or F_p^2 (ext=2, as F_p[sqrt(r)] with r the smallest
    non-residue mod p)."""

    def __init__(self, p, ext=1):
        if ext not in (1, 2):
            raise ValueError("ext must be 1 or 2")
        self.p = p
        self.ext = ext
        self.r = smallest_nonresidue(p) if ext == 2 else None

    @property
    def order(self):
        return self.p ** self.ext

    def __repr__(self):
        if self.ext == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^2[sqrt({self.r})]"

    def __eq__(self, other):
        return (isinstance(other, FqField)
                and (self.p, self.ext, self.r) == (other.p, other.ext, other.r))

    def __hash__(self):
        return hash(("fq", self.p, self.ext, self.r))

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def _embed(self, x):
        """An FpElem of this p as an element of this field."""
        return x if self.ext == 1 else QuadElem(x, FpElem(0, self.p), self.r)

    def from_int(self, n):
        return self._embed(FpElem(n, self.p))

    def coerce(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadReduction(f"denominator of {x} vanishes mod {self.p}")
            return self.from_int(x.numerator * pow(x.denominator, -1, self.p))
        if isinstance(x, FpElem) and x.p == self.p:
            return self._embed(x)
        if (self.ext == 2 and isinstance(x, QuadElem) and x.d == self.r
                and isinstance(x.a, FpElem) and x.a.p == self.p):
            return x
        raise FieldMismatch(f"cannot coerce {x!r} into {self!r}")

    def elements(self):
        """F_p as 0..p-1; F_p^2 as u + v*sqrt(r) in the order of u*p + v."""
        fp = [FpElem(v, self.p) for v in range(self.p)]
        if self.ext == 1:
            return fp
        return [QuadElem(u, v, self.r) for u in fp for v in fp]


def smallest_nonresidue(p):
    for r in range(2, p):
        if kronecker(r, p) == -1:
            return r
    raise ValueError(f"{p} is not an odd prime")


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Dense univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, field, coeffs):
        """Trusted coefficients: elements of field, leading one nonzero."""
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _lift(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        return Poly(self.field, [self.field.coerce(other)])

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return Poly(self.field, a)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.field.coerce(c)
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n):
        out = Poly(self.field, [self.field.one])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDenominator("polynomial division by zero")
        q = Poly(self.field, [])
        r = self
        dlead = other.coeffs[-1]
        while not r.is_zero() and r.degree >= other.degree:
            shift = r.degree - other.degree
            c = r.coeffs[-1] / dlead
            t = Poly(self.field, [self.field.zero] * shift + [c])
            q = q + t
            r = r - t * other
        return q, r

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.one / self.coeffs[-1])

    def derivative(self):
        return Poly(self.field,
                    [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        """self(other(X))."""
        self._check(other)
        acc = Poly(self.field, [])
        for c in reversed(self.coeffs):
            acc = acc * other + Poly(self.field, [c])
        return acc

    def __repr__(self):
        return format_poly(self)


def poly_x(field):
    return Poly(field, [field.zero, field.one])


def poly_const(field, c):
    return Poly(field, [c])


# ---------------------------------------------------------------------------
# rational functions

class RatFunc:
    """Quotient of coprime polynomials; denominator monic and nonzero.

    degree = max(deg num, deg den); the degree of the zero function is 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num._check(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Poly(num.field, [num.field.one])
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != num.field.one:
            inv = num.field.one / lead
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num, den):
        """Trusted num/den: coprime, den monic. Skips the gcd of __init__."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree, 0)

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._as_ratfunc(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._as_ratfunc(other)
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._as_ratfunc(other) / self

    def _as_ratfunc(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field} vs {self.field}")
            return other
        if isinstance(other, Poly):
            return RatFunc(other, Poly(other.field, [other.field.one]))
        c = self.field.coerce(other)
        one = Poly(self.field, [self.field.one])
        return RatFunc(Poly(self.field, [c]), one)

    def compose(self, other):
        """self(other(X)); deg(f o g) = deg f * deg g for nonconstant f, g."""
        other = self._as_ratfunc(other)
        # evaluate num and den of self at other via Horner over RatFunc
        one = Poly(self.field, [self.field.one])
        accn = RatFunc(Poly(self.field, []), one)
        for c in reversed(self.num.coeffs):
            accn = accn * other + self._as_ratfunc(c)
        accd = RatFunc(Poly(self.field, []), one)
        for c in reversed(self.den.coeffs):
            accd = accd * other + self._as_ratfunc(c)
        return accn / accd

    def derivative(self):
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def eval(self, x):
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError("pole; use projmap.eval_proj for P^1 semantics")
        return self.num.eval(x) / d

    def __repr__(self):
        return format_ratfunc(self)


# ---------------------------------------------------------------------------
# reduction at a place

def _frac_mod(c, p):
    """A rational as an int mod p."""
    if c.denominator == 1:
        return c.numerator % p
    if c.denominator % p == 0:
        raise BadReduction(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def _int_field_ops(p, r=None):
    """(zero, mul, inv, sub_mul) on ints mod p, or, when r is given, on pairs
    (u, v) meaning u + v*sqrt(r) in F_p^2; sub_mul(a, c, b) is a - c*b."""
    if r is None:
        return (0, lambda x, y: x * y % p, lambda x: pow(x, -1, p),
                lambda a, c, b: (a - c * b) % p)

    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def inv(x):
        n = pow((x[0] * x[0] - r * x[1] * x[1]) % p, -1, p)
        return x[0] * n % p, -x[1] * n % p

    def sub_mul(a, c, b):
        t = mul(c, b)
        return (a[0] - t[0]) % p, (a[1] - t[1]) % p

    return (0, 0), mul, inv, sub_mul


def _gcd_degree(a, b, ops):
    """Degree of gcd(a, b) for nonzero coefficient lists (lowest degree
    first, leading coefficient nonzero), by one Euclid pass."""
    zero, mul, inv, sub_mul = ops
    a, b = list(a), list(b)
    while len(b) > 1:
        lead_inv = inv(b[-1])
        n = len(b) - 1
        while len(a) > n:
            c = mul(a.pop(), lead_inv)  # the leading terms cancel exactly
            a[-n:] = [sub_mul(x, c, y) for x, y in zip(a[-n:], b)]
            while a and a[-1] == zero:
                a.pop()
        if not a:
            return n
        a, b = b, a
    return 0


def reduce_mod_place(f, p):
    """Reduce f over QQ or QQ(sqrt(d)) at the odd prime p.

    Split places substitute the smallest square root of d in {1..p-1};
    inert places land in F_p^2, with sqrt(d) = s*sqrt(r) for s^2 = d/r.
    Raises BadReduction if the degree drops or num/den become non-coprime,
    RamifiedPlace if p | 2d.

    The coefficients are reduced to ints mod p (pairs of ints at inert
    places) and tested for coprimality there, so the result is built
    without the gcd of RatFunc's constructor.
    """
    if p == 2:
        raise RamifiedPlace("p = 2 is always skipped")
    field = f.field
    target = FqField(p)
    if isinstance(field, RationalField):
        def scalar(c):
            return _frac_mod(c, p)
    elif isinstance(field, QuadField):
        d = field.d
        if (2 * d) % p == 0:
            raise RamifiedPlace(f"p = {p} divides 2d")
        if kronecker(d, p) == 1:
            r0 = sqrt_mod(d, p)
            root = min(r0, p - r0)

            def scalar(c):
                return (_frac_mod(c.a, p) + _frac_mod(c.b, p) * root) % p
        else:
            target = FqField(p, ext=2)
            # d and r are both non-residues, so d/r has a root
            s = sqrt_mod(d * pow(target.r, -1, p), p)

            def scalar(c):
                return _frac_mod(c.a, p), _frac_mod(c.b, p) * s % p
    else:
        raise FieldMismatch("reduction only from QQ or QQ(sqrt(d))")

    ops = _int_field_ops(p, target.r)
    zero, mul, inv, _ = ops
    num = [scalar(c) for c in f.num.coeffs]
    den = [scalar(c) for c in f.den.coeffs]
    if (num and num[-1] == zero) or den[-1] == zero:
        raise BadReduction(f"degree drops mod {p}")
    if len(num) > 1 and len(den) > 1 and _gcd_degree(num, den, ops) > 0:
        raise BadReduction(f"num and den share a factor mod {p}")
    lead_inv = inv(den[-1])

    def poly(cs):
        cs = [mul(c, lead_inv) for c in cs]
        if target.ext == 1:
            return Poly._raw(target, [FpElem(c, p) for c in cs])
        return Poly._raw(target, [QuadElem(FpElem(u, p), FpElem(v, p), target.r)
                                  for u, v in cs])

    return RatFunc._raw(poly(num), poly(den))


# ---------------------------------------------------------------------------
# text format: `num / den`, sparse infix `c0 + c1*x + c3*x^3`,
# rationals `a/b`, quadratic scalars `(a/b + c/d*sqrt(D))`

def format_scalar(c):
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, QuadElem):
        return f"({format_scalar(c.a)} + {format_scalar(c.b)}*sqrt({c.d}))"
    if isinstance(c, FpElem):
        return str(c.v)
    raise TypeError(f"unknown scalar {c!r}")


def format_poly(poly):
    if poly.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(poly.coeffs):
        if not c:
            continue
        s = format_scalar(c)
        if i == 0:
            terms.append(s)
        elif i == 1:
            terms.append(f"{s}*x")
        else:
            terms.append(f"{s}*x^{i}")
    return " + ".join(terms)


def format_ratfunc(f):
    return f"{format_poly(f.num)} / {format_poly(f.den)}"


# the largest exponent the parser accepts; the package's own functions reach
# degree 27, and a larger x^k would only allocate a huge coefficient list
PARSE_DEGREE_CAP = 1000
# the largest |D| of a sqrt(D) the parser accepts: squarefree_part trial-divides
# up to sqrt(|D|), at most about 3e4 steps here; the package itself uses sqrt(-3)
PARSE_DISC_CAP = 10 ** 9

_TOKEN = re.compile(r"\s*(sqrt|x|\^|\*|\+|\-|/|\(|\)|\d+)")


def _tokenize(s):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, field):
        self.toks = tokens
        self.i = 0
        self.field = field

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        t = self.peek()
        if t is None or (expect is not None and t != expect):
            raise ValueError(f"expected {expect!r}, got {t!r}")
        self.i += 1
        return t

    def parse_rational(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        n = int(self.take())
        if self.peek() == "/":
            self.take()
            d = int(self.take())
            if d == 0:
                raise ValueError(f"zero denominator in {n}/0")
            return Fraction(sign * n, d)
        return Fraction(sign * n)

    def parse_quad(self):
        # '(' a + b*sqrt(D) ')'
        self.take("(")
        a = self.parse_rational()
        sign = 1
        t = self.take()
        if t == "-":
            sign = -1
        elif t != "+":
            raise ValueError(f"expected + or - in quadratic scalar, got {t!r}")
        b = sign * self.parse_rational()
        self.take("*")
        self.take("sqrt")
        self.take("(")
        d = int(self.parse_rational())
        self.take(")")
        self.take(")")
        return QuadElem(a, b, d)

    def parse_term(self):
        """One term: scalar, scalar*x, scalar*x^k, x, x^k. Returns (k, coeff)."""
        sign = Fraction(1)
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        if self.peek() == "x":
            coeff = self.field.coerce(sign)
        elif self.peek() == "(":
            coeff = self.parse_quad() * sign
        else:
            coeff = self.field.coerce(self.parse_rational() * sign)
        k = 0
        if self.peek() == "*":
            self.take()
            self.take("x")
            k = 1
        elif self.peek() == "x":
            self.take()
            k = 1
        if k and self.peek() == "^":
            self.take()
            k = int(self.take())
            if k > PARSE_DEGREE_CAP:
                raise ValueError(f"exponent {k} exceeds cap {PARSE_DEGREE_CAP}")
        return k, coeff

    def parse_poly(self):
        terms = {}
        k, c = self.parse_term()
        terms[k] = terms.get(k, self.field.zero) + c
        while self.peek() in ("+", "-"):
            k, c = self.parse_term()
            terms[k] = terms.get(k, self.field.zero) + c
        deg = max(terms)
        coeffs = [terms.get(i, self.field.zero) for i in range(deg + 1)]
        return Poly(self.field, coeffs)


def parse_poly(s, field=None):
    if field is None:
        field = QuadField(_find_disc(s)) if "sqrt" in s else QQ
    parser = _Parser(_tokenize(s), field)
    poly = parser.parse_poly()
    if parser.peek() is not None:
        raise ValueError(f"unexpected {parser.peek()!r} after a polynomial")
    return poly


def _find_disc(s):
    m = re.search(r"sqrt\(\s*(-?\d+)\s*\)", s)
    if not m:
        raise ValueError("no sqrt(D) found")
    d = int(m.group(1))
    if abs(d) > PARSE_DISC_CAP:
        raise ValueError(f"|D| = {abs(d)} in sqrt(D) exceeds cap {PARSE_DISC_CAP}")
    return d


def parse_ratfunc(s):
    """Parse `num / den`. The / separating num and den is the one at depth 0
    that is not part of a rational a/b (i.e. followed by a term, not a bare
    integer glued to the numerator); we split on the last top-level ' / '.
    """
    field = QuadField(_find_disc(s)) if "sqrt" in s else QQ
    depth = 0
    split = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i > 0 and s[i - 1] == " ":
            split = i
    if split is None:
        num = parse_poly(s, field)
        return RatFunc(num, Poly(field, [field.one]))
    num = parse_poly(s[:split], field)
    den = parse_poly(s[split + 1 :], field)
    if den.is_zero():
        raise ValueError("zero denominator")
    return RatFunc(num, den)


def parse_fraction(text):
    """A rational from text such as '3', '-2/7' or '0.5', raising ValueError
    (never ZeroDivisionError) on malformed text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
