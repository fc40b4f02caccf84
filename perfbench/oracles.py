"""Answers computed apart from schurscope, used to check every result the
benchmark collects.

Nothing here imports the package: primes come from a plain sieve, the sweep
verdicts from the number-theoretic criteria of the paper and from a small
numpy evaluator over F_p and F_p[sqrt r], pair orbits from union-find, group
orders from breadth-first closure, and fixed points from cycle counts.
Each ``check_*`` function returns a list of error strings, empty when every
answer agrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

# ---------------------------------------------------------------------------
# arithmetic helpers


def odd_primes(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [p for p in range(3, bound + 1) if sieve[p]]


def _is_residue(a, p):
    return pow(a % p, (p - 1) // 2, p) == 1


def _roots_of(a, p):
    """All x in F_p with x^2 = a, by search (p is small)."""
    return [x for x in range(p) if (x * x - a) % p == 0]


def _poly_mod(coeffs, p):
    """Coefficients (Fractions, lowest degree first) reduced mod p, or None
    when a denominator vanishes mod p."""
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return out


def reduction_is_bad(num, den, p):
    """Whether the rational function num/den over Q has bad reduction at p:
    a denominator vanishes, a degree drops, or num and den share a factor."""
    n, d = _poly_mod(num, p), _poly_mod(den, p)
    if n is None or d is None or n[-1] == 0 or d[-1] == 0:
        return True
    return _poly_gcd_degree([(c, 0) for c in n], [(c, 0) for c in d], p, 0) > 0


# ---------------------------------------------------------------------------
# sweeps


def check_sweep(name, report, bound, num, den, predicate):
    """One schur_sweep report of a function over Q against the sieve, an own
    bad-reduction test and the predicted per-prime criterion
    (``predicate(p)`` is the predicted bijectivity at a good prime, or None
    where the criterion predicts nothing)."""
    errors = []
    primes = [r.p for r in report.records]
    if primes != odd_primes(bound):
        errors.append(f"{name}: records are not the odd primes up to {bound}")
    tally = {"bijective": 0, "not-bijective": 0, "bad-reduction": 0,
             "ramified": 0}
    for r in report.records:
        tally[r.verdict] = tally.get(r.verdict, 0) + 1
    counts = (report.bijective, report.not_bijective, report.bad_reduction,
              report.ramified)
    if counts != tuple(tally[k] for k in ("bijective", "not-bijective",
                                          "bad-reduction", "ramified")) \
            or sum(counts) != len(report.records):
        errors.append(f"{name}: verdict counts do not add up")
    for r in report.records:
        bad = reduction_is_bad(num, den, r.p)
        if bad != (r.verdict == "bad-reduction") or r.verdict == "ramified":
            errors.append(f"{name}: p={r.p} verdict {r.verdict}, "
                          f"bad reduction {bad}")
        elif not bad and predicate(r.p) not in (None,
                                                (r.verdict == "bijective")):
            errors.append(f"{name}: p={r.p} verdict {r.verdict} "
                          f"against the predicted criterion")
        elif not bad and r.place_degree != 1:
            errors.append(f"{name}: p={r.p} place degree {r.place_degree}")
    return errors


def isogeny5_predicate(p):
    """Bijective exactly when 5 is a non-residue (Euler's criterion)."""
    return pow(5, (p - 1) // 2, p) == p - 1


def a4s4_predicate(q):
    """a4s4(0, q) is bijective exactly when x^3 + q has no root mod p."""
    def pred(p):
        cubes = {x * x * x % p for x in range(p)}
        return (-q) % p not in cubes
    return pred


def dickson_predicate(n):
    return lambda p: gcd(n, p * p - 1) == 1


def redei3comp_predicate(p):
    """The composition is bijective at no prime above 5."""
    return False if p > 5 else None


# -- cm7 over Q(sqrt(-3)), as pairs (a, b) meaning a + b*sqrt(-3)

def _qmul(x, y):
    return (x[0] * y[0] - 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _w(a, b):
    """a + b*w with w = (-1 + sqrt(-3))/2."""
    return (Fraction(a) - Fraction(b, 2), Fraction(b, 2))


def _qpoly_mul(f, g):
    out = [(Fraction(0), Fraction(0))] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = _qadd(out[i + j], _qmul(a, b))
    return out


def cm7_coefficients():
    """num and den of the degree-7 CM quotient with B = 1, from the formula

        (1-18w)(Y^6 + (9+108w) Y^4 + (459+216w) Y^2 - (405+324w)) Y
        / (7Y^2 - (3-12w))^3,

    written out here without the package's field classes."""
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    neg = lambda x: (-x[0], -x[1])  # noqa: E731
    inner = [zero, neg(_w(405, 324)), zero, _w(459, 216), zero, _w(9, 108),
             zero, one]
    num = [_qmul(_w(1, -18), c) for c in inner]
    lin = [neg(_w(3, -12)), zero, (Fraction(7), Fraction(0))]
    den = _qpoly_mul(_qpoly_mul(lin, lin), lin)
    return num, den


def _smallest_nonresidue(p):
    return next(r for r in range(2, p) if not _is_residue(r, p))


class Cm7Evaluator:
    """Verdicts of x -> cm7(sign * x) on P^1 over the residue field of an
    odd prime, evaluated with numpy over F_p or F_p[sqrt r] as integer
    pairs.  Split places use the smaller square root of -3, as the program
    documents; at inert places either root gives the same verdict."""

    def __init__(self, sign):
        self.sign = sign
        self.num, self.den = cm7_coefficients()

    def verdict(self, p):
        """(place degree, verdict) at the odd prime p."""
        if p == 3:
            return 0, "ramified"
        if _is_residue(-3, p):
            root = min(_roots_of(-3, p))
            k, r, s = 1, 0, root
        else:
            k, r = 2, _smallest_nonresidue(p)
            s = min(_roots_of(-3 * pow(r, -1, p), p))  # sqrt(-3) = s*sqrt(r)

        def red(c):
            a, b = c
            if a.denominator % p == 0 or b.denominator % p == 0:
                return None
            a = a.numerator * pow(a.denominator, -1, p) % p
            b = b.numerator * pow(b.denominator, -1, p) % p
            if k == 1:
                return (a + b * s) % p, 0
            return a, b * s % p

        num = [red(c) for c in self.num]
        den = [red(c) for c in self.den]
        if None in num or None in den or num[-1] == (0, 0) \
                or den[-1] == (0, 0):
            return 0, "bad-reduction"
        if _poly_gcd_degree(num, den, p, r) > 0:
            return 0, "bad-reduction"
        return k, "bijective" if self._bijective(num, den, p, k, r) \
            else "not-bijective"

    def _bijective(self, num, den, p, k, r):
        q = p ** k
        idx = np.arange(q, dtype=np.int64)
        xa = (idx // p if k == 2 else idx) % p
        xb = idx % p if k == 2 else np.zeros(q, dtype=np.int64)
        ya, yb = self.sign * xa % p, self.sign * xb % p

        def horner(coeffs):
            acc_a = np.zeros(q, dtype=np.int64)
            acc_b = np.zeros(q, dtype=np.int64)
            for ca, cb in reversed(coeffs):
                acc_a, acc_b = ((acc_a * ya + r * (acc_b * yb % p) + ca) % p,
                                (acc_a * yb + acc_b * ya + cb) % p)
            return acc_a, acc_b

        na, nb = horner(num)
        da, db = horner(den)
        norm = (da * da - r * (db * db % p)) % p
        inv_table = np.array([0] + [pow(i, -1, p) for i in range(1, p)],
                             dtype=np.int64)
        ninv = inv_table[norm]
        ia, ib = da * ninv % p, (-db) * ninv % p  # 1/den = conj(den)/norm
        img_a = (na * ia + r * (nb * ib % p)) % p
        img_b = (na * ib + nb * ia) % p
        codes = np.where(norm == 0, q, img_a * p + img_b if k == 2 else img_a)
        # deg num = 7 > deg den = 6, so infinity maps to infinity (code q)
        codes = np.append(codes, q)
        return len(np.unique(codes)) == q + 1


def _poly_gcd_degree(a, b, p, r):
    """Degree of gcd(a, b) over F_p[sqrt r], coefficients as pairs (u, v)
    meaning u + v sqrt(r), lowest degree first; over F_p every v is 0."""
    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def inv(x):
        n = pow((x[0] * x[0] - r * x[1] * x[1]) % p, -1, p)
        return x[0] * n % p, (-x[1]) * n % p

    def trim(x):
        x = list(x)
        while x and x[-1] == (0, 0):
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        lead_inv = inv(b[-1])
        while len(a) >= len(b):
            q = mul(a[-1], lead_inv)
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                t = mul(q, c)
                a[shift + i] = ((a[shift + i][0] - t[0]) % p,
                                (a[shift + i][1] - t[1]) % p)
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def check_cm7_sweep(report, bound, evaluator):
    errors = []
    if [r.p for r in report.records] != odd_primes(bound):
        errors.append(f"cm7: records are not the odd primes up to {bound}")
    for r in report.records:
        want = evaluator.verdict(r.p)
        if (r.place_degree, r.verdict) != want:
            errors.append(f"cm7: p={r.p} gave {(r.place_degree, r.verdict)}, "
                          f"evaluator {want}")
    return errors


# ---------------------------------------------------------------------------
# permutation groups, from generator image lists


def closure(gens, n):
    """All elements of <gens> as image tuples, by breadth-first closure."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                w = tuple(g[x] for x in h)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return seen


def orbit(gens, point):
    seen, queue = {point}, [point]
    while queue:
        x = queue.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                queue.append(g[x])
    return seen


def cycle_lengths(images):
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        out.append(length)
    return out


def element_order(images):
    order = 1
    for c in cycle_lengths(images):
        order = order * c // gcd(order, c)
    return order


def common_orbit_count(a_gens, g_gens, n):
    """r: the number of A-orbits on ordered pairs that are single G-orbits,
    by union-find over the n^2 pairs."""
    def orbits(gens):
        parent = list(range(n * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in gens:
            for i in range(n):
                for j in range(n):
                    a, b = find(i * n + j), find(g[i] * n + g[j])
                    if a != b:
                        parent[a] = b
        return [find(x) for x in range(n * n)]

    a_lab, g_lab = orbits(a_gens), orbits(g_gens)
    g_in_a = {}
    for x in range(n * n):
        g_in_a.setdefault(a_lab[x], set()).add(g_lab[x])
    return sum(1 for labels in g_in_a.values() if len(labels) == 1)


def psl2_even_class_sizes(q):
    """Class sizes of PSL2(q) for even q: 1, q^2-1, then (q-2)/2 classes of
    size q(q+1) (split torus) and q/2 of size q(q-1) (nonsplit torus)."""
    return sorted([1, q * q - 1] + [q * (q + 1)] * ((q - 2) // 2)
                  + [q * (q - 1)] * (q // 2))
