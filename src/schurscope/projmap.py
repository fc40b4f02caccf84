"""Evaluation of rational functions on P^1(F_q), bijectivity testing, and
prime sweeps measuring how often a function permutes the projective line.

One segmented evaluator serves a single function and a whole sweep. Its
input is int rows (`exactalg.Reduced`): functions of one place degree,
each over its own F_p or F_p^2, with the coefficients of num and den as
ints mod p, or as pairs (u, v) for u + v*sqrt(r) in F_p^2. It lays the
points of their projective lines end to end as int arrays, one segment per
function and one lane per point: F_p elements are ints 0..p-1, and an
element u + v*sqrt(r) of F_p^2 is enumerated as the int u*p + v in the order
of `FqField.elements()`; the index q is infinity. Each lane carries its
segment's modulus and gathers its coefficients; Horner runs in place, in
int32 when every intermediate fits (else int64), and 1/d is the per-lane
Fermat power d^(p-2). The images, shifted to their segment's offset, fill
one bincount, and a function is bijective when no bin of its segment counts
other than 1. The lanes are evaluated in chunks of `_CHUNK`, which bounds
the temporaries.

`is_bijective` is the batch of one, on the rows of its RatFunc.

A sweep classifies each odd prime as bijective, not-bijective,
bad-reduction, ramified or point-cap; point-cap means P^1(F_q) has more
points than the cap allows, so the prime was not evaluated. One
`exactalg.Reducer` per function and sweep call clears the denominators of
num and den once into integer rows N, D and computes Res(N, D) once, by the
subresultant PRS (Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 3.3.7). At each prime it decides with O(1) work per
coefficient: p | 2d is ramified; a vanishing denominator, leading
coefficient or resultant at the place is bad reduction, since with unit
leading coefficients the resultant commutes with reduction. The good places
go to the evaluator as int rows, in batches of one place degree and at most
DEFAULT_POINT_CAP points. A batch is evaluated as soon as it is full, so a
sweep holds the rows of at most one batch per place degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactalg import (
    BadReduction,
    FqField,
    RamifiedPlace,
    Reduced,
    Reducer,
    primes_up_to,
    reduce_mod_place,
)


DEFAULT_POINT_CAP = 1 << 20
_CHUNK = 1 << 14  # lanes evaluated at once, which bounds the temporaries


class PointCapExceeded(ValueError):
    """P^1(F_q) is too large to evaluate; place_degree is the exponent of
    q = p^place_degree."""

    def __init__(self, message, place_degree=0):
        super().__init__(message)
        self.place_degree = place_degree


# ---------------------------------------------------------------------------
# the segmented evaluator

def _exact_dtype(fields):
    """The narrowest integer dtype in which every intermediate of the
    evaluator over all of fields is exact: int32 when each is below 2^31,
    else int64 when each is below 2^62 (over F_p that is p < 2^31, a bit of
    headroom kept), else None. numpy is not touched before a dtype fits.

    All values are reduced mod p, so every factor is at most p - 1. Over F_p
    the largest intermediate is a Horner step n*x + c <= (p-1)^2 + (p-1).
    Over F_p^2 it is the first coordinate of a Horner step or product,
    u*x + r*v*y + c with the cross term scaled by the non-residue r: at most
    (1 + r)(p-1)^2 + (p-1).
    """
    top = max((1 if F.ext == 1 else 1 + F.r) * (F.p - 1) ** 2 + F.p - 1
              for F in fields)
    if top < 1 << 31:
        return np.int32
    if top < 1 << 62:
        return np.int64
    return None


def _check_cap(field):
    """Raise PointCapExceeded when P^1(F_q) has more than DEFAULT_POINT_CAP
    points or the field is too large for int64; allocates nothing."""
    q = field.order
    if q + 1 > DEFAULT_POINT_CAP:
        raise PointCapExceeded(f"q + 1 = {q + 1} exceeds cap {DEFAULT_POINT_CAP}",
                               field.ext)
    if _exact_dtype([field]) is None:
        raise PointCapExceeded(f"{field} is too large for int64 evaluation",
                               field.ext)


def _images(fs, j, seg):
    """Images under fs[seg[i]] of the points j[i], one lane each.

    fs are `Reduced` rows of one place degree, each over its own field; a
    point is its index in field.elements(), q meaning infinity, and an
    image is an int in the same numbering (F_p^2 pairs as u*p + v). Each
    per-segment value is gathered onto the lanes. Works in place, in the
    dtype of `_exact_dtype`; 1/d is the per-lane Fermat power d^(p-2).
    """
    fields = [f.field for f in fs]
    ext = fields[0].ext
    dtype = _exact_dtype(fields)
    n = len(j)
    buf = np.empty(n, dtype)

    def lane(values, out=None):
        """A per-segment value on every lane, into out or a new array."""
        return np.take(np.asarray(values, dtype=dtype if out is None
                                  else out.dtype), seg, out=out)

    def table(rows):
        """rows as one array, lowest degree first, zero padded; over F_p^2
        the last axis holds u and v."""
        width = max(1, max(map(len, rows)))
        pad = [0] if ext == 1 else [(0, 0)]
        return np.array([g + pad * (width - len(g)) for g in rows],
                        dtype=dtype)

    def inverse(d, out):
        """d^(p-2) mod p, so 0 for 0, by square and multiply over the bits
        of each lane's exponent; a bit set on some lanes only is applied
        through a mask. d is overwritten."""
        exps = [F.p - 2 for F in fields]
        out[...] = 1
        for b in range(max(exps).bit_length()):
            if b:
                d *= d
                d %= p
            bits = [(e >> b) & 1 for e in exps]
            if all(bits):
                out *= d
                out %= p
            elif any(bits):
                np.remainder(np.multiply(out, d, out=buf), p, out=buf)
                np.copyto(out, buf, where=lane(bits, np.empty(n, bool)))
        return out

    p = lane([F.p for F in fields])
    q = lane([F.order for F in fields])
    at_inf = np.flatnonzero(j == q)
    x = j.astype(dtype)
    x[at_inf] = 0  # the lanes at infinity are overwritten below
    if ext == 1:
        def horner(rows):
            cs = table(rows)
            acc = lane(cs[:, -1])
            for k in range(cs.shape[1] - 2, -1, -1):
                acc *= x
                acc += lane(cs[:, k], buf)
                acc %= p
            return acc

        img = horner([f.num for f in fs])
        d = horner([f.den for f in fs])
        pole = d == 0
        inv = inverse(d, np.empty(n, dtype))
        img *= inv
        img %= p
    else:
        r = lane([F.r for F in fields])
        xu, xv = np.divmod(x, p)
        del x
        t, s = np.empty(n, dtype), np.empty(n, dtype)

        def horner(rows):
            cs = table(rows)
            cu, cv = cs[..., 0], cs[..., 1]
            au, av = lane(cu[:, -1]), lane(cv[:, -1])
            for k in range(cu.shape[1] - 2, -1, -1):
                np.multiply(au, xv, out=t)
                np.multiply(np.multiply(av, xv, out=s), r, out=s)
                au *= xu
                au += s
                au += lane(cu[:, k], buf)
                au %= p
                av *= xu
                av += t
                av += lane(cv[:, k], buf)
                av %= p
            return au, av

        nu, nv = horner([f.num for f in fs])
        du, dv = horner([f.den for f in fs])
        # 1/d = conj(d)/N(d), with the norm N(d) = du^2 - r*dv^2 in F_p
        norm = np.multiply(du, du, out=xu)
        np.multiply(dv, dv, out=xv)
        xv *= r
        norm -= xv
        norm %= p
        pole = norm == 0
        inv = inverse(norm, xv)
        du *= inv
        du %= p
        dv *= inv
        np.negative(dv, out=dv)
        dv %= p
        img = np.multiply(nu, du, out=t)
        np.multiply(nv, dv, out=s)
        s *= r
        img += s
        img %= p
        img *= p
        nu *= dv
        nv *= du
        nu += nv
        nu %= p
        img += nu
    np.copyto(img, q, where=pole)
    if len(at_inf):
        img[at_inf] = np.take([_image_at_inf(f) for f in fs], seg[at_inf])
    return img


def _image_at_inf(f):
    """The image of infinity under the rows f, in the lanes' numbering."""
    F, p = f.field, f.field.p
    dn, dd = len(f.num), len(f.den)
    if dn > dd:
        return F.order
    if dn < dd:
        return 0
    if F.ext == 1:
        return f.num[-1] * pow(f.den[-1], -1, p) % p
    (a, b), (u, v) = f.num[-1], f.den[-1]
    # (a + b*sqrt(r)) / (u + v*sqrt(r)), by the conjugate over the norm
    n = pow(u * u - F.r * v * v, -1, p)
    return (a * u - F.r * b * v) * n % p * p + (b * u - a * v) * n % p


def _rows(f):
    """A RatFunc over F_q as the evaluator's `Reduced` rows."""
    F = f.field
    if F.ext == 1:
        return Reduced(F, [c.v for c in f.num.coeffs],
                       [c.v for c in f.den.coeffs])
    return Reduced(F, [(c.a.v, c.b.v) for c in f.num.coeffs],
                   [(c.a.v, c.b.v) for c in f.den.coeffs])


def _bijective(fs):
    """Whether each of the `Reduced` rows fs, of one place degree, permutes
    P^1 of its field, as a bool array: one pass over the fields' points
    laid end to end. f's points and its images take the bins from the
    offset of its segment on, so one bincount serves them all; a function
    is bijective when no bin of its segment counts other than 1."""
    sizes = [f.field.order + 1 for f in fs]
    starts = np.cumsum([0] + sizes)
    bins = np.empty(starts[-1], dtype=np.intp)
    for a in range(0, len(bins), _CHUNK):
        lanes = np.arange(a, min(a + _CHUNK, len(bins)))
        seg = starts.searchsorted(lanes, "right") - 1
        j = lanes - starts[seg]
        # only the functions whose segments meet the chunk
        lo, hi = seg[0], seg[-1] + 1
        img = _images(fs[lo:hi], j, seg - lo)
        np.add(img, lanes - j, out=bins[a:a + len(lanes)])
    counts = np.bincount(bins, minlength=starts[-1])
    return ~np.logical_or.reduceat(counts != 1, starts[:-1])


def is_bijective(f):
    """Whether f, a RatFunc over F_q, permutes P^1(F_q): the batch of one of
    the segmented evaluator. Raises TypeError when f is not over a finite
    field, and PointCapExceeded, before any allocation, when
    q + 1 > DEFAULT_POINT_CAP or the field is too large for int64.
    """
    if not isinstance(f.field, FqField):
        raise TypeError("is_bijective needs a function over a finite field")
    _check_cap(f.field)
    return bool(_bijective([_rows(f)])[0])


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


def _reduce(reduce, p):
    """(reduce(p), None), or (None, the record of p) when the place over p
    is ramified or the function has bad reduction there."""
    try:
        return reduce(p), None
    except RamifiedPlace:
        return None, SweepRecord(p, 0, "ramified")
    except BadReduction:
        return None, SweepRecord(p, 0, "bad-reduction")


def sweep_prime(f, p):
    """The sweep verdict for one odd prime, through `reduce_mod_place` and
    `is_bijective`. Raises PointCapExceeded when P^1 over the residue field
    has more than DEFAULT_POINT_CAP points."""
    fp, skipped = _reduce(lambda q: reduce_mod_place(f, q), p)
    if skipped:
        return skipped
    return SweepRecord(p, fp.field.ext,
                       "bijective" if is_bijective(fp) else "not-bijective")


def sweep_primes(f, primes):
    """One record per prime, in the given order; a cap overrun is the
    prime's point-cap verdict.

    One `Reducer` of f decides each prime's ramified and bad-reduction
    verdicts, and the point-cap ones are decided on their own. The good
    places go into one open batch per place degree, of at most
    DEFAULT_POINT_CAP points. A batch is evaluated in one pass of
    `_bijective` as soon as the next place of its degree would overflow it,
    and the batches still open after the last prime are evaluated then.
    """
    records = [None] * len(primes)
    batches = {}  # place degree -> ([(index, Reduced rows)], points)

    def evaluate(batch):
        oks = _bijective([fp for _, fp in batch])
        for (i, fp), ok in zip(batch, oks):
            records[i] = SweepRecord(primes[i], fp.field.ext,
                                     "bijective" if ok else "not-bijective")

    reduce = Reducer(f).at
    for i, p in enumerate(primes):
        fp, records[i] = _reduce(reduce, p)
        if records[i]:
            continue
        try:
            _check_cap(fp.field)
        except PointCapExceeded as e:
            records[i] = SweepRecord(p, e.place_degree, "point-cap")
            continue
        ext, size = fp.field.ext, fp.field.order + 1
        batch, points = batches.get(ext, ([], 0))
        # size fits the cap, so a batch it overflows is never empty
        if points + size > DEFAULT_POINT_CAP:
            evaluate(batch)
            batch, points = [], 0
        batch.append((i, fp))
        batches[ext] = batch, points + size
    for batch, _ in batches.values():
        evaluate(batch)
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
