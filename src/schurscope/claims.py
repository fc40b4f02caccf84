"""The paper's checkable results, each recomputed in exactly one place.

A claim is a generator of `(what, observed, expected)` rows; a row fails when
`observed != expected`.  A per-prime or per-element check gives one row whose
observed value is the list of offenders and whose expected value is `[]`.
`schurscope verify-paper` prints the rows; the acceptance tests assert that
no row fails."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from . import ellipt, exceptio, funfam, permcore, ramgenus
from .exactalg import QQ, FqField, kronecker, reduce_mod_place
from .permcore import Perm, PermGroup
from .projmap import schur_sweep

GENUS_TABLE = [
    ((2, 3, 8), 5808, 122),
    ((2, 3, 10), 150, 6),
    ((2, 2, 2, 4), 400, 51),
    ((2, 2, 2, 3), 300, 26),
    ((2, 2, 2, 4), 72, 10),
    ((2, 2, 2, 2, 2), 72, 19),
    ((2, 3, 7), 504, 7),
    ((2, 3, 9), 504, 15),
    ((2, 2, 2, 3), 504, 43),
    ((2, 4, 5), 360, 10),
]

EUCLIDEAN_TYPES = [(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)]
EUCLIDEAN_ORDERS = (12, 24, 72, 360, 504)

SWEEP_BOUND = 2000


def genus_table():
    """The regular genus of the distinguished types, and genus 1 for the
    Euclidean types."""
    for t, order, want in GENUS_TABLE:
        yield f"regular_genus{t}, |G| = {order}", ramgenus.regular_genus(t, order), want
    yield (f"Euclidean (type, order) not of genus 1, orders {EUCLIDEAN_ORDERS}",
           [(t, order) for t in EUCLIDEAN_TYPES for order in EUCLIDEAN_ORDERS
            if ramgenus.regular_genus(t, order) != 1], [])


def genus0():
    """The genus-0 types of PSL2(8) on 28, PSL2(9) on 45 and PSL2(32) on 496
    points."""
    for q, action, want in (
            (8, permcore.psl2_torus_coset_action, [(2, 2, 2, 3), (2, 3, 7), (2, 3, 9)]),
            (9, permcore.psl2_sylow2_coset_action, [(2, 4, 5)]),
            (32, permcore.psl2_torus_coset_action, [])):
        G = action(q, "psl")[0].group
        yield f"genus-0 types, PSL2({q}) on {G.degree}", ramgenus.genus0_search(G), want


def fixed_points():
    """chi and ind of elements of order 2, 3 and 5 of PGammaL2(32) on 496
    points, and the fixed points of PSL2(8) on 28 points."""
    # the full extension of PSL2(32) by the field automorphisms: the order-5
    # elements live in the outer cosets, not in PSL2(32) itself
    A = permcore.psl2_torus_coset_action(32, "pgammal")[0].group
    H = PermGroup(A.degree, A.stabilizer_gens(0))
    want = {2: (16, 240), 3: (1, 330), 5: (1, 396)}
    for o in sorted(want):
        g = permcore.element_of_order(A, o)
        got = (exceptio.chi_fixed_points(A, H, g), ramgenus.ind(g))
        yield f"(chi, ind) of order {o}, PGammaL2(32) on 496", got, want[o]
    G = permcore.psl2_torus_coset_action(8, "psl")[0].group
    els = [(g.order(), len(g.fixed_points())) for g in G.elements()]
    off_table = [(o, fp) for o, fp in els
                 if (o == 2 and fp != 4) or (o > 1 and o % 2 == 1 and fp > 1)]
    yield ("(order, fixed points), PSL2(8) on 28: involutions not fixing 4, "
           "odd orders fixing more than 1", off_table, [])


def _coset_average_offenders(A, G):
    """(coset number, average, common orbits) where the Burnside average of
    fixed points on xG is not the common-orbit count of (<G, x>, G), or
    "average 1" is not the exceptionality verdict."""
    out = []
    for i, (x, v) in enumerate(exceptio.coset_verdicts(A, G)):
        avg = exceptio.coset_average_fixed_points(A, G, x)
        if avg != v.r or v.exceptional != (avg == 1):
            out.append((i, avg, v.r))
    return out


def exceptionality():
    """Exceptionality verdicts of small, PSL2 and wreath examples, and the
    coset-average criterion against the common-orbit count on each."""
    S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    C3 = PermGroup(3, [Perm([1, 2, 0])])
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    pairs = {"(S3, C3)": (S3, C3), "(S4, A4)": (S4, A4)}
    for name, want in (("(S3, C3)", True), ("(S4, A4)", False)):
        v = exceptio.is_exceptional(*pairs[name])
        yield f"{name} exceptional", v.exceptional, want

    # the witness of PGammaL2(8) lies in a field-automorphism coset, of order
    # divisible by 3; those of M10 outside PSL2(9) have order 4 or 8
    for name, (act, G0), order3 in (
            ("(PGammaL2(8), PSL2(8)) on 28",
             permcore.psl2_torus_coset_action(8, "pgammal"), True),
            ("(M10, PSL2(9)) on 45", permcore.psl2_sylow2_coset_action(9, "m10"), False)):
        A, G = pairs[name] = act.group, act.image_group(G0)
        v = exceptio.is_arithmetically_exceptional(A, G)
        w = v.witness
        yield f"{name} arithmetically exceptional", v.arithmetically_exceptional, True
        yield f"{name}: witness outside G", w is not None and w not in G, True
        yield (f"{name}: witness order divisible by 3",
               w is not None and w.order() % 3 == 0, order3)

    for t, want in ((5, True), (2, False)):
        name = f"S3 wreath, t = {t}"
        A, G, _ = exceptio.build_wreath_diagonal_example(S3, t)
        pairs[name] = (A, G)
        yield f"{name}: degree", A.degree, 6 ** (t - 1)
        yield f"{name} exceptional", exceptio.is_exceptional(A, G).exceptional, want

    for name, (A, G) in pairs.items():
        yield (f"{name}: (coset, average, common orbits) that disagree",
               _coset_average_offenders(A, G), [])


def sweeps():
    """Sweeps to 2000 against the predicted per-prime criteria and densities."""
    # (name, function, criterion, predicted(p), density to within 1/20)
    cases = [
        ("isogeny5", funfam.sporadic_degree5(), "(5/p) = -1",
         lambda p: kronecker(5, p) == -1, Fraction(1, 2)),
        ("a4s4(0, 2)", funfam.a4s4_function(0, 2), "X^3 + 2 irreducible mod p",
         lambda p: all(pow(x, 3, p) != (-2) % p for x in range(p)), Fraction(1, 3)),
    ]
    cases += [(f"dickson({n}, 1)", funfam.dickson(n, 1), f"gcd({n}, p^2 - 1) = 1",
               lambda p, n=n: gcd(n, p * p - 1) == 1, None) for n in (3, 5, 7)]
    for name, f, criterion, predicted, density in cases:
        rep = schur_sweep(f, SWEEP_BOUND)
        yield (f"{name}: primes where bijective != ({criterion})",
               [r.p for r in rep.records if r.verdict in ("bijective", "not-bijective")
                and (r.verdict == "bijective") != predicted(r.p)], [])
        if density is not None:
            yield (f"{name}: density {rep.density} within 1/20 of {density}",
                   abs(rep.density - density) <= Fraction(1, 20), True)

    rep = schur_sweep(funfam.builtin_function("builtin:redei3comp"), SWEEP_BOUND)
    yield ("redei3comp: bijective primes > 5",
           [r.p for r in rep.records if r.verdict == "bijective" and r.p > 5], [])


# (a, b, m, beta, psi named, psi, primes): R(psi(P)) = psi(mP) on
# y^2 = x^3 + ax + b, checked mod each of the primes
DESCENTS = [
    (0, 2, 2, 3, "y", lambda P: P[1], (103, 109, 127)),
    (3, 0, 3, 4, "x^2", lambda P: P[0] * P[0], (101, 103, 107)),
    (0, 2, 5, 6, "y^2", lambda P: P[1] * P[1], (103, 109, 127)),
]


def pointwise_offenders(R, a, b, m, psi, primes, samples, seed):
    """(p, P) for sampled points P of y^2 = x^3 + ax + b mod each prime p
    where R(psi(P)) != psi(mP); a pole of R must match mP = O."""
    out = []
    for p in primes:
        Rp = reduce_mod_place(R, p)
        Ep = ellipt.EllCurve(FqField(p), a % p, b % p)
        rng = random.Random(p + seed)
        for _ in range(samples):
            P = ellipt.random_point(Ep, rng)
            Q = ellipt.point_mul(Ep, m, P)
            d = Rp.den.eval(psi(P))
            got = Rp.num.eval(psi(P)) / d if d else None
            if got != (None if Q is None else psi(Q)):
                out.append((p, P))
    return out


def elliptic():
    """Multiplication maps and quotient descents against point arithmetic mod
    small primes, the cm7 and degree-5 identities, and a sweep."""
    E2 = ellipt.EllCurve(QQ, Fraction(0), Fraction(2))
    yield ("xmul_map(y^2 = x^3 + 2, 2) equals a4s4(0, 2)",
           ellipt.xmul_map(E2, 2) == funfam.a4s4_function(0, 2), True)

    F3 = ellipt.xmul_map(ellipt.EllCurve(QQ, Fraction(-18), Fraction(1)), 3)
    yield ("xmul_map(y^2 = x^3 - 18x + 1, 3): points (p, P) where F(x(P)) != x(3P)",
           pointwise_offenders(F3, -18, 1, 3, lambda P: P[0], (101, 103, 107), 25, 0), [])

    for a, b, m, beta, psi_name, psi, primes in DESCENTS:
        E = ellipt.EllCurve(QQ, Fraction(a), Fraction(b))
        R = ellipt.quotient_descent(E, m, beta)
        name = f"quotient_descent(y^2 = x^3 + {a}x + {b}, m = {m}, beta = {beta})"
        yield f"{name}: degree", R.degree, m * m
        yield (f"{name}: points (p, P) where R({psi_name}(P)) != {psi_name}({m}P)",
               pointwise_offenders(R, a, b, m, psi, primes, 20, m), [])

    yield ("primes p in (13, 31, 61) where verify_cm7(p) fails",
           [p for p in (13, 31, 61) if not ellipt.verify_cm7(p)], [])
    yield ("degree-5 isogeny identity q2(f) = q1 (f'/5)^2",
           funfam.sporadic_degree5_isogeny_identity(), True)
    rep = schur_sweep(F3, SWEEP_BOUND)
    yield (f"xmul_map(y^2 = x^3 - 18x + 1, 3): density {rep.density} positive",
           rep.density > 0, True)


def _gf16_group_pair():
    """G = C_2^4 . D_10 and A = C_2^4 . (D_10 x C_3) on the 16 points of
    GF(16), with D_10 generated by multiplication by g^3 and the square of
    Frobenius, and C_3 by multiplication by g^5."""
    F = permcore.SmallGF(2, 4)
    space = permcore.AffineSpace(2, 4)
    g = F.multiplicative_generator()
    g3 = F.power(g, 3)
    g5 = F.power(g, 5)

    mult5 = space.map_perm(lambda v: F.mul(tuple(v), g3))
    frob2 = space.map_perm(lambda v: F.power(tuple(v), 4))
    mult3 = space.map_perm(lambda v: F.mul(tuple(v), g5))
    trans = [space.translation(tuple(1 if j == i else 0 for j in range(4)))
             for i in range(4)]
    G = PermGroup(16, trans + [mult5, frob2])
    A = PermGroup(16, trans + [mult5, frob2, mult3])
    return A, G


def _escaping_normalizers(A, G):
    """Elements of order 4 of G whose cyclic group has its normalizer in A
    outside G."""
    for sigma in G.elements():
        N = permcore.normalizer_of_cyclic(A, sigma) if sigma.order() == 4 else None
        if N is not None and any(h not in G for h in N.gens):
            yield sigma


def deg16():
    """No branch cycle of order 4 for C_2^4 . D_10 inside C_2^4 . (D_10 x C_3)
    on 16 points, with (M10, PSL2(9)) on 45 points as the negative control."""
    A, G = _gf16_group_pair()
    yield "(|G|, |A|), C_2^4.D_10 < C_2^4.(D_10 x C_3)", (G.order, A.order), (160, 480)
    yield ("C_2^4.D_10 has elements of order 4",
           any(g.order() == 4 for g in G.elements()), True)
    yield ("order-4 elements of C_2^4.D_10 whose normalizer escapes it",
           list(_escaping_normalizers(A, G)), [])
    # the same test must be able to fail
    act, G0 = permcore.psl2_sylow2_coset_action(9, "m10")
    A, G = act.group, act.image_group(G0)
    yield ("negative control, (M10, PSL2(9)) on 45: an order-4 normalizer escapes G",
           next(_escaping_normalizers(A, G), None) is not None, True)


CLAIMS = {
    "genus-table": genus_table,
    "genus0": genus0,
    "fixed-points": fixed_points,
    "exceptionality": exceptionality,
    "sweeps": sweeps,
    "elliptic": elliptic,
    "deg16": deg16,
}


def run(name):
    """The rows of claim `name`, the failing rows, and the seconds taken."""
    start = time.perf_counter()
    rows = list(CLAIMS[name]())
    failed = [row for row in rows if row[1] != row[2]]
    return rows, failed, time.perf_counter() - start
