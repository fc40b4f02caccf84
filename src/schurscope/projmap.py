"""Evaluation of rational functions on P^1(F_q), bijectivity testing, and
prime sweeps measuring how often a function permutes the projective line.

`is_bijective` evaluates num and den over all of F_q at once, as int64
arrays: F_p elements are ints 0..p-1, and an element u + v*sqrt(r) of F_p^2,
a QuadElem over F_p, is the pair (u, v), enumerated as the int u*p + v in
the order of `FqField.elements()`. Division uses a table of inverses in F_p,
and collisions are found by counting images. Only a verdict of "not
bijective" decodes a witness: the first collision in evaluation order (the
elements in order, then INF).

A sweep classifies each odd prime as bijective, not-bijective,
bad-reduction, ramified or point-cap; point-cap means P^1(F_q) has more
points than the cap allows, so the prime was not evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactalg import (
    BadReduction,
    FpElem,
    FqField,
    QuadElem,
    RamifiedPlace,
    primes_up_to,
    reduce_mod_place,
)


class Infinity:
    """The point at infinity on P^1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = Infinity()

DEFAULT_POINT_CAP = 1 << 20


class PointCapExceeded(ValueError):
    """P^1(F_q) is too large to evaluate; place_degree is the exponent of
    q = p^place_degree."""

    def __init__(self, message, place_degree=0):
        super().__init__(message)
        self.place_degree = place_degree


def eval_proj(f, x):
    """Evaluate f at a point of P^1(F_q), x an element of F_q or INF."""
    if x is INF:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return f.field.zero
        return f.num.coeffs[-1] / f.den.coeffs[-1]
    d = f.den.eval(x)
    if not d:
        return INF
    return f.num.eval(x) / d


# ---------------------------------------------------------------------------
# the int64 evaluator

def _int64_exact(field):
    """Whether every intermediate of the evaluator fits in int64.

    All values are reduced mod p, so every factor is at most p - 1. Over F_p
    the largest intermediate is a Horner step n*x + c <= (p-1)^2 + (p-1); we
    ask p < 2^31, which keeps it below 2^62. Over F_p^2 it is the first
    coordinate of a Horner step or product, u*x + r*v*y + c with the cross
    term scaled by the non-residue r: at most (1 + r)(p-1)^2 + (p-1).
    """
    p = field.p
    if field.ext == 1:
        return p < 1 << 31
    return (1 + field.r) * (p - 1) ** 2 + (p - 1) < 1 << 63


def _inverse_table(p):
    """inv[x] = x^(p-2) mod p for x in 0..p-1, so inv[0] = 0."""
    base = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _images(f):
    """Images of F_q under f as ints (F_p^2 pairs as u*p + v), q meaning INF,
    in the order of field.elements()."""
    field = f.field
    p, q = field.p, field.order
    inv = _inverse_table(p)
    if field.ext == 1:
        x = np.arange(p, dtype=np.int64)

        def horner(poly):
            *rest, lead = poly.coeffs
            acc = np.full(p, lead.v, dtype=np.int64)
            for c in reversed(rest):
                acc = (acc * x + c.v) % p
            return acc

        n, d = horner(f.num), horner(f.den)
        img = n * inv[d] % p
    else:
        r = field.r
        xu = np.repeat(np.arange(p, dtype=np.int64), p)
        xv = np.tile(np.arange(p, dtype=np.int64), p)

        def horner(poly):
            *rest, lead = poly.coeffs
            au = np.full(q, lead.a.v, dtype=np.int64)
            av = np.full(q, lead.b.v, dtype=np.int64)
            for c in reversed(rest):
                au, av = ((au * xu + r * av * xv + c.a.v) % p,
                          (au * xv + av * xu + c.b.v) % p)
            return au, av

        (nu, nv), (du, dv) = horner(f.num), horner(f.den)
        # 1/d = conj(d)/N(d), with the norm N(d) = du^2 - r*dv^2 in F_p
        ninv = inv[(du * du - r * dv * dv) % p]
        iu, iv = du * ninv % p, -dv * ninv % p
        img = ((nu * iu + r * nv * iv) % p) * p + (nu * iv + nv * iu) % p
        d = du | dv
    img[d == 0] = q
    return img


def _image_at_inf(f):
    field = f.field
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        return field.order
    if dn < dd:
        return 0
    c = f.num.coeffs[-1] / f.den.coeffs[-1]
    return c.v if field.ext == 1 else c.a.v * field.p + c.b.v


def is_bijective(f):
    """Whether f permutes P^1(F_q). Returns (verdict, witness).

    witness is a colliding pair of points when the verdict is False: the
    first collision in evaluation order (field elements in enumeration
    order, then INF), else None. Raises PointCapExceeded, before any
    allocation, when q + 1 > DEFAULT_POINT_CAP or the field is too large
    for int64.
    """
    field = f.field
    if not isinstance(field, FqField):
        raise TypeError("is_bijective needs a function over a finite field")
    q = field.order
    if q + 1 > DEFAULT_POINT_CAP:
        raise PointCapExceeded(f"q + 1 = {q + 1} exceeds cap {DEFAULT_POINT_CAP}",
                               field.ext)
    if not _int64_exact(field):
        raise PointCapExceeded(f"{field} is too large for int64 evaluation",
                               field.ext)
    if f.is_constant():
        return False, (_decode(field, 0), _decode(field, 1))
    images = np.append(_images(f), _image_at_inf(f))
    if np.bincount(images, minlength=q + 1).max() == 1:
        return True, None
    values, first = np.unique(images, return_index=True)
    is_first = np.zeros(q + 1, dtype=bool)
    is_first[first] = True
    j = int(np.argmin(is_first))
    i = int(first[np.searchsorted(values, images[j])])
    return False, (_decode(field, i), _decode(field, j))


def _decode(field, i):
    if i == field.order:
        return INF
    if field.ext == 1:
        return field.from_int(i)
    u, v = divmod(i, field.p)
    return QuadElem(FpElem(u, field.p), FpElem(v, field.p), field.r)


# ---------------------------------------------------------------------------
# prime sweeps

@dataclass(frozen=True)
class SweepRecord:
    p: int
    place_degree: int  # 1 or 2; 0 for skipped primes
    verdict: str  # bijective | not-bijective | bad-reduction | ramified | point-cap


@dataclass(frozen=True)
class SweepReport:
    records: tuple
    bijective: int
    not_bijective: int
    bad_reduction: int
    ramified: int
    point_cap: int

    @classmethod
    def from_records(cls, records):
        """The report of records in increasing prime order, verdicts counted."""
        records = tuple(records)
        counts = dict.fromkeys(("bijective", "not-bijective", "bad-reduction",
                                "ramified", "point-cap"), 0)
        for r in records:
            counts[r.verdict] += 1
        return cls(records=records,
                   bijective=counts["bijective"],
                   not_bijective=counts["not-bijective"],
                   bad_reduction=counts["bad-reduction"],
                   ramified=counts["ramified"],
                   point_cap=counts["point-cap"])

    @property
    def good_primes(self):
        return self.bijective + self.not_bijective

    @property
    def density(self):
        """Bijective density among good primes, as an exact fraction."""
        if self.good_primes == 0:
            return Fraction(0)
        return Fraction(self.bijective, self.good_primes)

    def to_dict(self, function_text=""):
        d = self.density
        return {
            "function": function_text,
            "records": [{"p": r.p, "place_degree": r.place_degree, "verdict": r.verdict}
                        for r in self.records],
            "density": f"{d.numerator}/{d.denominator}",
        }


def sweep_prime(f, p):
    """The sweep verdict for one odd prime. Raises PointCapExceeded when
    P^1 over the residue field has more than DEFAULT_POINT_CAP points."""
    try:
        fp = reduce_mod_place(f, p)
    except RamifiedPlace:
        return SweepRecord(p, 0, "ramified")
    except BadReduction:
        return SweepRecord(p, 0, "bad-reduction")
    ok, _ = is_bijective(fp)
    return SweepRecord(p, fp.field.ext, "bijective" if ok else "not-bijective")


def sweep_primes(f, primes):
    """One record per prime, in the given order; a cap overrun is the
    prime's point-cap verdict."""
    records = []
    for p in primes:
        try:
            records.append(sweep_prime(f, p))
        except PointCapExceeded as e:
            records.append(SweepRecord(p, e.place_degree, "point-cap"))
    return records


def odd_primes(prime_bound):
    """The odd primes <= prime_bound, for a sweep. Raises ValueError, before
    sieving, when prime_bound < 3, or when it exceeds DEFAULT_POINT_CAP:
    every prime beyond the cap could only get the verdict point-cap."""
    if prime_bound < 3:
        raise ValueError("prime_bound must be >= 3")
    if prime_bound > DEFAULT_POINT_CAP:
        raise ValueError(f"prime_bound {prime_bound} exceeds the point cap "
                         f"{DEFAULT_POINT_CAP}")
    return primes_up_to(prime_bound)[1:]


def schur_sweep(f, prime_bound):
    """Classify every odd prime <= prime_bound: does f mod p permute P^1?

    p = 2 is always skipped; per-prime failures, cap overruns included, are
    verdicts, not errors. Deterministic: records in increasing prime order.
    Raises ValueError on a bound that `odd_primes` refuses.
    """
    return SweepReport.from_records(sweep_primes(f, odd_primes(prime_bound)))
