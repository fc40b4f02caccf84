"""Evaluation of rational functions on P^1(F_q), bijectivity testing, and
prime sweeps measuring how often a function permutes the projective line.

One segmented evaluator serves a single function and a whole sweep. Its
input is int rows (`exactalg.Reduced`): functions of one place degree,
each over its own F_p or F_p^2, with the coefficients of num and den as
ints mod p, or as pairs (u, v) for u + v*sqrt(r) in F_p^2. It lays the
points of their projective lines end to end as int arrays, one segment per
function and one lane per point: F_p elements are ints 0..p-1, and an
element u + v*sqrt(r) of F_p^2 is enumerated as the int u*p + v in the order
of `FqField.elements()`; the index q is infinity. A segment's modulus and
coefficients reach its lanes by np.repeat over the runs of the segments.
Horner runs in place in int64, over the coefficient columns that are
nonzero in some segment only (a gap of g columns is one multiply by x^g),
with a `%` only where the next step could overflow: a Python-int bound is
kept on every intermediate. 1/d costs only where it must: a constant den
scales num's rows, over F_p^2 1/N(d) comes from a table of the p inverses
in F_p, and else it is the per-lane Fermat power d^(p-2). The images,
shifted to their segment's offset, fill one bincount, and a function is
bijective when no bin of its segment counts other than 1. The lanes are
evaluated in chunks of `_CHUNK`, which bounds the temporaries.

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
from functools import partial

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

_INT64_MAX = (1 << 63) - 1


def _step(top, r, b):
    """Bounds on the coordinates of a Horner step a*x^g + c from bounds b,
    a tuple, on those of a, with x^g and c at most top; they also bound
    a*d for d at most top. Over F_p (r None), (B,) -> (top*B + top,). Over
    F_p^2 = F_p[sqrt(r)], (Bu, Bv) -> (top*(Bu + r*Bv) + top,
    top*(Bu + Bv) + top): the first coordinate of a product is
    au*bu + r*av*bv, the second au*bv + av*bu. The pair grows by about
    (1 + sqrt(r))*top a step, where one bound on both coordinates would
    grow by (1 + r)*top."""
    if r is None:
        return (top * b[0] + top,)
    return (top * (b[0] + r * b[1]) + top, top * (b[0] + b[1]) + top)


def _growth(fields):
    """(top, step) over fields: top = p_max - 1 bounds every reduced value,
    and step is `_step` at top and r_max."""
    top = max(F.p for F in fields) - 1
    r = None if fields[0].ext == 1 else max(F.r for F in fields)
    return top, partial(_step, top, r)


def _check_cap(field):
    """Raise PointCapExceeded when P^1(F_q) has more than DEFAULT_POINT_CAP
    points, or when one Horner step from reduced values may reach 2^62, so
    that the field is too large for int64 evaluation; allocates nothing."""
    q = field.order
    if q + 1 > DEFAULT_POINT_CAP:
        raise PointCapExceeded(f"q + 1 = {q + 1} exceeds cap {DEFAULT_POINT_CAP}",
                               field.ext)
    top = field.p - 1
    if max(_step(top, field.r, (top,) * field.ext)) >= 1 << 62:
        raise PointCapExceeded(f"{field} is too large for int64 evaluation",
                               field.ext)


def _fermat_inverse(d, p, exps, runs):
    """d^e mod p on every lane, e = exps[s] on the runs[s] lanes of segment
    s: with e = p - 2 that is 1/d, and 0 for 0. Square and multiply over
    the bits of the exponents; a bit set on some segments only is applied
    through where=. In int32 when each (p - 1)^2 fits, else in int64,
    where d is overwritten."""
    dtype = np.int32 if (max(exps) + 1) ** 2 < 1 << 31 else np.int64
    d = d.astype(dtype, copy=False)
    p = np.asarray(p, dtype)
    out = np.ones(len(d), dtype)
    for b in range(max(exps).bit_length()):
        if b:
            d *= d
            d %= p
        bits = [(e >> b) & 1 for e in exps]
        if all(bits):
            out *= d
            out %= p
        elif any(bits):
            mask = np.repeat(np.array(bits, bool), runs)
            np.multiply(out, d, out=out, where=mask)
            np.remainder(out, p, out=out, where=mask)
    return out


def _images(fs, j, runs):
    """Images under the rows fs of the points j, one lane each: the first
    runs[0] lanes are points of fs[0], the next runs[1] of fs[1], and so on.

    fs are `Reduced` rows of one place degree, each over its own field; a
    point is its index in field.elements(), q meaning infinity, and an
    image is an int in the same numbering (F_p^2 pairs as u*p + v). A
    per-segment value reaches the lanes by np.repeat over runs, or as a
    scalar when every segment has the same.

    Horner runs in int64 over the coefficient columns that are nonzero in
    some segment only: a gap of g columns is one multiply by x^g, the
    powers made once per call, and a zero low end one last multiply by
    x^k. Reduction is lazy. With `_growth`'s (top, step), a reduced value
    is at most top, and a bound on each coordinate is kept through every
    step, so `%` runs only when the next step could pass 2^63 - 1;
    `_check_cap` keeps one step from reduced values below 2^62. 1/d costs
    only where it must: a constant den (in every segment) scales num's rows
    by its inverse, and there is no pole; over F_p^2, 1/d = conj(d)/N(d) with
    1/N(d) gathered from a per-segment table of the p inverses in F_p;
    else it is the per-lane Fermat power d^(p-2).
    """
    fields = [f.field for f in fs]
    ext = fields[0].ext
    top, step = _growth(fields)
    reduced = (top,) * ext
    n = len(j)

    def spread(values):
        """A per-segment value on every lane, or the one value they share."""
        if values.count(values[0]) == len(values):
            return values[0]
        return np.repeat(np.array(values, np.int64), runs)

    p = spread([F.p for F in fields])
    orders = [F.order for F in fields]
    last = np.cumsum(runs) - 1
    at_inf = np.flatnonzero(j[last] == orders)  # segments ending in the chunk
    x = j.astype(np.int64)
    x[last[at_inf]] = 0  # the lanes at infinity are overwritten below
    if ext == 1:
        xs = [x]
    else:
        r = spread([F.r for F in fields])
        xs = list(np.divmod(x, p))
        t, s = np.empty(n, np.int64), np.empty(n, np.int64)
    del x

    def reduce(a):
        for c in a:
            c %= p

    def times(a, b):
        """a *= b in F_q, in place and unreduced; b is not a."""
        if ext == 1:
            a[0] *= b[0]
            return
        (au, av), (bu, bv) = a, b
        np.multiply(np.multiply(av, bv, out=t), r, out=t)
        np.multiply(au, bv, out=s)
        au *= bu
        au += t
        av *= bu
        av += s

    powers = {1: xs}

    def power(g):
        """x^g on every lane, reduced, from squares; all cached in powers."""
        for i in range(1, g.bit_length()):
            if 1 << i not in powers:
                half = powers[1 << (i - 1)]
                sq = [c.copy() for c in half]
                times(sq, half)
                reduce(sq)
                powers[1 << i] = sq
        if g not in powers:
            bits = [1 << i for i in range(g.bit_length()) if g >> i & 1]
            acc = [c.copy() for c in powers[bits[0]]]
            for e in bits[1:]:
                times(acc, powers[e])
                reduce(acc)
            powers[g] = acc
        return powers[g]

    def horner(rows):
        """The polynomials with coefficient rows (one per segment, as lists
        of ints or (u, v) pairs) on every lane, as (lanes per coordinate,
        bounds per coordinate); bounds of at most top mean reduced."""
        width = max(map(len, rows))
        zero = 0 if ext == 1 else (0, 0)
        # column k: per coordinate, the segments' coefficients of x^k
        cols = [None if col.count(zero) == len(col)
                else (col,) if ext == 1 else tuple(zip(*col))
                for col in zip(*[row + [zero] * (width - len(row)) for row in rows])]
        ks = [k for k in range(width - 1, -1, -1) if cols[k]]
        if not ks:
            return [np.zeros(n, np.int64) for _ in range(ext)], (0,) * ext
        acc = [v if isinstance(v, np.ndarray) else np.full(n, v, np.int64)
               for v in map(spread, cols[ks[0]])]
        bound = reduced
        # ending on x^k, k > 0, is one more step, down to column 0
        for hi, k in zip(ks, ks[1:] + [0] * (ks[-1] > 0)):
            if max(step(bound)) > _INT64_MAX:
                reduce(acc)
                bound = reduced
            times(acc, power(hi - k))
            bound = step(bound)
            if cols[k]:
                for a, c in zip(acc, cols[k]):
                    a += spread(c)
        return acc, bound

    if all(len(f.den) == 1 for f in fs):
        # num/c as num times the inverse of c, per segment: no pole
        num = []
        for f in fs:
            c, P = f.den[0], f.field.p
            if ext == 1:
                inv = pow(c, -1, P)
                num.append([a * inv % P for a in f.num])
                continue
            (u, v), R = c, f.field.r
            w = pow(u * u - R * v * v, -1, P)
            u, v = u * w, -v * w
            num.append([((a * u + R * b * v) % P, (a * v + b * u) % P)
                        for a, b in f.num])
        img, bound = horner(num)
        if max(bound) > top:
            reduce(img)
        pole = None
    elif ext == 1:
        (d,), bound = horner([f.den for f in fs])
        if max(bound) > top:
            d %= p
        pole = d == 0
        inv = _fermat_inverse(d, p, [F.p - 2 for F in fields], runs)
        img, bound = horner([f.num for f in fs])
        if max(step(bound)) > _INT64_MAX:
            reduce(img)
        img[0] *= inv
        reduce(img)
    else:
        (du, dv), bound = horner([f.den for f in fs])
        if max(bound) > top:
            reduce((du, dv))
        # 1/d = conj(d)/N(d), with the norm N(d) = du^2 - r*dv^2 in F_p
        norm = du * du
        np.multiply(dv, dv, out=t)
        t *= r
        norm -= t
        norm %= p
        pole = norm == 0
        ps = [F.p for F in fields]
        if sum(ps) < n:  # a table of the p inverses per segment, gathered
            start = np.cumsum([0] + ps[:-1])
            table = _fermat_inverse(np.arange(sum(ps)) - np.repeat(start, ps),
                                    np.repeat(ps, ps), [P - 2 for P in ps], ps)
            norm += spread(start.tolist())
            inv = table[norm]
            del table
        else:
            inv = _fermat_inverse(norm, p, [P - 2 for P in ps], runs)
        del norm
        (nu, nv), bound = horner([f.num for f in fs])
        if max(step(bound)) > _INT64_MAX:
            reduce((nu, nv))
            bound = reduced
        # (nu + nv*sqrt(r)) * (du - dv*sqrt(r)), up to sign within step's
        np.multiply(nv, dv, out=t)
        t *= r
        np.multiply(nu, dv, out=s)
        nu *= du
        nu -= t
        nv *= du
        nv -= s
        img = [nu, nv]
        if max(step(bound)) * top > _INT64_MAX:
            reduce(img)
        for c in img:
            c *= inv
        reduce(img)
    if ext == 2:
        img[0] *= p
        img[0] += img[1]
    img = img[0]
    if pole is not None:
        np.copyto(img, spread(orders), where=pole)
    img[last[at_inf]] = [_image_at_inf(fs[s]) for s in at_inf]
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
        b = min(a + _CHUNK, len(bins))
        # only the functions whose segments meet the chunk, lo to hi - 1
        lo = starts.searchsorted(a, "right") - 1
        hi = starts.searchsorted(b)
        runs = np.diff(np.clip(starts[lo:hi + 1], a, b))
        offsets = np.repeat(starts[lo:hi], runs)
        img = _images(fs[lo:hi], np.arange(a, b) - offsets, runs)
        np.add(img, offsets, out=bins[a:b])
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
