"""Command-line front end: prime sweeps, exceptionality verdicts, genus
computations, genus-0 searches, family constructors, elliptic descents, and
the self-check suite recomputing the headline tables."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .exactalg import (
    QQ,
    format_ratfunc,
    parse_ratfunc,
    primes_up_to,
)
from .projmap import SweepReport, schur_sweep, sweep_primes
from . import funfam
from .permcore import (
    AffineSpace,
    Perm,
    PermGroup,
    SmallGF,
    normalizer_of_cyclic,
    psl2_sylow2_coset_action,
    psl2_torus_coset_action,
)
from . import exceptio, ramgenus, ellipt


# ---------------------------------------------------------------------------
# built-in functions

def builtin_function(name):
    """Resolve a builtin:... function name to a RatFunc."""
    parts = name.split(":")
    if parts[0] != "builtin":
        raise ValueError(f"not a builtin name: {name}")
    tag = parts[1]
    args = parts[2:]
    if tag == "isogeny5":
        return funfam.sporadic_degree5()
    if tag == "cm7":
        b = Fraction(args[0]) if args else Fraction(1)
        return funfam.cm7_function(b)
    if tag == "dickson":
        return funfam.dickson(int(args[0]), Fraction(args[1]))
    if tag == "redei":
        return funfam.redei(int(args[0]), Fraction(args[1]))
    if tag == "a4s4":
        return funfam.a4s4_function(Fraction(args[0]), Fraction(args[1]))
    if tag == "redei3comp":
        # composition of the three degree-3 maps with constants fields
        # Q(sqrt(-1)), Q(sqrt(-2)), Q(sqrt(2)): d = 3, 6, -6
        f1 = funfam.redei(3, 3)
        f2 = funfam.redei(3, 6)
        f3 = funfam.redei(3, -6)
        return f1.compose(f2).compose(f3)
    raise ValueError(f"unknown builtin function: {name}")


def load_function(spec):
    """A function argument: builtin:..., a file path, or literal text."""
    if spec.startswith("builtin:"):
        return builtin_function(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_ratfunc(fh.read().strip())
    return parse_ratfunc(spec)


def load_group(path):
    with open(path) as fh:
        data = json.load(fh)
    return PermGroup(data["degree"], [Perm(g) for g in data["generators"]])


def dump_group(G, path):
    with open(path, "w") as fh:
        json.dump({"degree": G.degree,
                   "generators": [list(g.images) for g in G.gens]}, fh)


# ---------------------------------------------------------------------------
# worker support for sweeps

def parallel_sweep(f, bound, workers):
    """schur_sweep, optionally splitting the prime range over processes."""
    if workers <= 1:
        return schur_sweep(f, bound)
    from concurrent.futures import ProcessPoolExecutor

    primes = [p for p in primes_up_to(bound) if p != 2]
    chunks = [primes[i::workers] for i in range(workers)]
    text = format_ratfunc(f)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_sweep_primes, [(text, c) for c in chunks]))
    records = sorted((r for part in parts for r in part), key=lambda r: r.p)
    return SweepReport.from_records(records)


def _sweep_primes(args):
    text, primes = args
    return sweep_primes(parse_ratfunc(text), primes)


def worker_count():
    try:
        return max(1, int(os.environ.get("SCHURSCOPE_WORKERS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# the degree-16 obstruction

def _gf16_group_pair():
    """G = C_2^4 . D_10 and A = C_2^4 . (D_10 x C_3) on the 16 points of
    GF(16), with D_10 generated by multiplication by g^3 and the square of
    Frobenius, and C_3 by multiplication by g^5."""
    F = SmallGF(2, 4)
    space = AffineSpace(2, 4)
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
    if G.order != 160 or A.order != 480:
        raise AssertionError("unexpected group orders in the degree-16 setup")
    return A, G


def verify_deg16_obstruction():
    """For G = C_2^4 . D_10 inside A = C_2^4 . (D_10 x C_3) on 16 points:
    the normalizer in A of every cyclic subgroup of order 4 in G lies in G.
    True means a branch cycle of order 4 cannot exist over any number field
    for this configuration."""
    A, G = _gf16_group_pair()
    order4 = [g for g in G.elements() if g.order() == 4]
    if not order4:
        raise AssertionError("no elements of order 4 found in G")
    for sigma in order4:
        N = normalizer_of_cyclic(A, sigma)
        if any(h not in G for h in N.gens):
            return False
    return True


def deg16_negative_control():
    """The analogous check on (M_10, PSL_2(9)) in degree 45 must fail: there
    the normalizer of some order-4 cyclic subgroup escapes G."""
    act, G9 = psl2_sylow2_coset_action(9, "m10")
    A = act.group
    G = PermGroup(A.degree, [act.image(g) for g in G9.gens])
    for sigma in G.elements():
        if sigma.order() != 4:
            continue
        N = normalizer_of_cyclic(A, sigma)
        if any(h not in G for h in N.gens):
            return True
    return False


# ---------------------------------------------------------------------------
# verify-paper targets

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


def check_genus_table(out):
    ok = True
    for t, order, want in GENUS_TABLE:
        got = ramgenus.regular_genus(t, order)
        line = f"regular_genus{t} |G|={order}: {got} (expected {want})"
        if got != want:
            ok = False
            line += "  MISMATCH"
        out(line)
    for t in EUCLIDEAN_TYPES:
        for order in (12, 24, 72, 360):
            if ramgenus.regular_genus(t, order) != 1:
                ok = False
                out(f"Euclidean type {t} at order {order} is not genus 1  MISMATCH")
    out("Euclidean types give genus 1: checked")
    return ok


def check_genus0(out):
    ok = True
    act, _ = psl2_torus_coset_action(8, "psl")
    got = ramgenus.genus0_search(act.group)
    want = [(2, 2, 2, 3), (2, 3, 7), (2, 3, 9)]
    out(f"genus-0 types, degree 28: {got}")
    ok &= got == want
    act, _ = psl2_sylow2_coset_action(9, "psl")
    got = ramgenus.genus0_search(act.group)
    out(f"genus-0 types, degree 45: {got}")
    ok &= got == [(2, 4, 5)]
    act, _ = psl2_torus_coset_action(32, "psl")
    got = ramgenus.genus0_search(act.group)
    out(f"genus-0 types, degree 496: {got}")
    ok &= got == []
    return ok


def _elements_of_orders(G, orders, seed=0):
    """One element of each requested order, found by powering random words."""
    rng = random.Random(seed)
    els = {}
    cur = G.gens[0]
    while set(orders) - set(els):
        o = cur.order()
        for d in orders:
            if d not in els and o % d == 0:
                e = cur
                for _ in range(o // d - 1):
                    e = e * cur
                els[d] = e
        cur = cur * rng.choice(G.gens)
    return els


def check_fixed_points(out):
    ok = True
    # the full extension of PSL2(32) by the field automorphisms: the order-5
    # elements live in the outer cosets, not in PSL2(32) itself
    act, _ = psl2_torus_coset_action(32, "pgammal")
    A = act.group
    H = PermGroup(A.degree, A.stabilizer_gens(0))
    want = {2: (16, 240), 3: (1, 330), 5: (1, 396)}
    els = _elements_of_orders(A, sorted(want))
    for o, (chi_want, ind_want) in sorted(want.items()):
        g = els[o]
        chi = exceptio.chi_fixed_points(A, H, g)
        iv = ramgenus.ind(g)
        line = f"degree 496, order {o}: chi={chi} ind={iv} (expected {chi_want}, {ind_want})"
        if (chi, iv) != (chi_want, ind_want):
            ok = False
            line += "  MISMATCH"
        out(line)
    act, _ = psl2_torus_coset_action(8, "psl")
    G8 = act.group
    for g in G8.elements():
        o = g.order()
        fp = len(g.fixed_points())
        if o == 2 and fp != 4:
            ok = False
            out(f"degree 28 involution fixes {fp} != 4  MISMATCH")
        if o % 2 == 1 and o > 1 and fp > 1:
            ok = False
            out(f"degree 28 odd-order element fixes {fp} > 1  MISMATCH")
    out("degree 28: involutions fix 4, odd order fixes <= 1: checked")
    return ok


def check_exceptionality(out):
    ok = True
    S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    C3 = PermGroup(3, [Perm([1, 2, 0])])
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    ok &= exceptio.is_exceptional(S3, C3).exceptional
    ok &= not exceptio.is_exceptional(S4, A4).exceptional
    out(f"(S4, A4) not exceptional, (S3, C3) exceptional: {ok}")
    act, G8 = psl2_torus_coset_action(8, "pgammal")
    A = act.group
    G = PermGroup(A.degree, [act.image(g) for g in G8.gens])
    v = exceptio.is_arithmetically_exceptional(A, G)
    out(f"(PGammaL2(8), PSL2(8), 28) arithmetically exceptional: "
        f"{v.arithmetically_exceptional}")
    ok &= v.arithmetically_exceptional
    act, G9 = psl2_sylow2_coset_action(9, "m10")
    A = act.group
    G = PermGroup(A.degree, [act.image(g) for g in G9.gens])
    v = exceptio.is_arithmetically_exceptional(A, G)
    out(f"(M10, PSL2(9), 45) arithmetically exceptional: "
        f"{v.arithmetically_exceptional}")
    ok &= v.arithmetically_exceptional
    A5_, G5_, _ = exceptio.build_wreath_diagonal_example(S3, 5)
    v5 = exceptio.is_exceptional(A5_, G5_)
    out(f"wreath S3, t=5, degree {A5_.degree}: exceptional {v5.exceptional}")
    ok &= v5.exceptional
    A2_, G2_, _ = exceptio.build_wreath_diagonal_example(S3, 2)
    v2 = exceptio.is_exceptional(A2_, G2_)
    out(f"wreath S3, t=2: exceptional {v2.exceptional}")
    ok &= not v2.exceptional
    return ok


def check_sweeps(out, bound=2000):
    from .exactalg import kronecker

    ok = True
    f5 = funfam.sporadic_degree5()
    rep = schur_sweep(f5, bound)
    for r in rep.records:
        if r.verdict in ("bijective", "not-bijective"):
            want = kronecker(5, r.p) == -1
            if (r.verdict == "bijective") != want:
                ok = False
                out(f"isogeny5 mismatch at p={r.p}")
    d = rep.density
    out(f"isogeny5: density {d} (target 1/2 within 0.05)")
    ok &= abs(d - Fraction(1, 2)) <= Fraction(5, 100)

    fa = funfam.a4s4_function(0, 2)
    rep = schur_sweep(fa, bound)
    for r in rep.records:
        if r.verdict in ("bijective", "not-bijective"):
            want = _cubic_irreducible_mod_p(2, r.p)
            if (r.verdict == "bijective") != want:
                ok = False
                out(f"a4s4(0,2) mismatch at p={r.p}")
    d = rep.density
    out(f"a4s4(0,2): density {d} (target 1/3 within 0.05)")
    ok &= abs(d - Fraction(1, 3)) <= Fraction(5, 100)

    comp = builtin_function("builtin:redei3comp")
    rep = schur_sweep(comp, bound)
    bad = [r.p for r in rep.records if r.verdict == "bijective" and r.p > 5]
    out(f"redei composition: bijective primes > 5: {bad}")
    ok &= not bad

    from math import gcd
    for n in (3, 5, 7):
        fd = funfam.dickson(n, 1)
        rep = schur_sweep(fd, bound)
        for r in rep.records:
            if r.verdict in ("bijective", "not-bijective"):
                want = gcd(n, r.p * r.p - 1) == 1
                if (r.verdict == "bijective") != want:
                    ok = False
                    out(f"dickson {n} mismatch at p={r.p}")
        out(f"dickson n={n}: gcd criterion exact per prime: checked")
    return ok


def _cubic_irreducible_mod_p(q, p):
    """Whether X^3 + q is irreducible mod p (no root mod p suffices for a
    cubic)."""
    return all(pow(x, 3, p) != (-q) % p for x in range(p))


def check_elliptic(out):
    import random as _random

    ok = True
    EQ = ellipt.EllCurve(QQ, Fraction(0), Fraction(2))
    ok &= ellipt.xmul_map(EQ, 2) == funfam.a4s4_function(0, 2)
    out("xmul_map(2) equals the closed degree-4 formula: checked")

    E18 = ellipt.EllCurve(QQ, Fraction(-18), Fraction(1))
    F3 = ellipt.xmul_map(E18, 3)
    from .exactalg import reduce_mod_place

    for p in (101, 103, 107):
        Fp = reduce_mod_place(F3, p)
        from .exactalg import FqField

        Ep = ellipt.EllCurve(FqField(p), (-18) % p, 1)
        rng = _random.Random(p)
        for _ in range(25):
            P = ellipt.random_point(Ep, rng)
            Q = ellipt.point_mul(Ep, 3, P)
            dv = Fp.den.eval(P[0])
            if Q is None:
                ok &= not dv
            else:
                ok &= bool(dv) and Fp.num.eval(P[0]) / dv == Q[0]
    out("xmul_map(3) matches point arithmetic mod 101/103/107: " + str(ok))

    for p in (13, 31, 61):
        good = ellipt.verify_cm7(p)
        out(f"verify_cm7({p}): {good}")
        ok &= good

    ok &= funfam.sporadic_degree5_isogeny_identity()
    out("degree-5 isogeny identity: checked")

    rep = schur_sweep(F3, 2000)
    out(f"order-2 m=3 sweep density: {rep.density}")
    ok &= rep.density > 0
    return ok


def check_deg16(out):
    good = verify_deg16_obstruction()
    out(f"degree-16 obstruction holds: {good}")
    return good


VERIFY_TARGETS = {
    "genus-table": check_genus_table,
    "genus0": check_genus0,
    "fixed-points": check_fixed_points,
    "exceptionality": check_exceptionality,
    "sweeps": check_sweeps,
    "elliptic": check_elliptic,
    "deg16": check_deg16,
}


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_sweep(args):
    f = load_function(args.function)
    rep = parallel_sweep(f, args.bound, worker_count())
    doc = rep.to_dict(args.function)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_exceptional(args):
    A = load_group(args.group)
    G = load_group(args.normal)
    if args.arith:
        v = exceptio.is_arithmetically_exceptional(A, G)
        doc = {"arithmetically_exceptional": v.arithmetically_exceptional,
               "witness": list(v.witness.images) if v.witness else None}
    else:
        v = exceptio.is_exceptional(A, G)
        doc = {"exceptional": v.exceptional, "common_orbits": v.r,
               "witness": list(v.witness) if v.witness else None}
    print(json.dumps(doc, indent=2))
    return 0


def cmd_genus(args):
    t = tuple(int(x) for x in args.type.split(","))
    g = ramgenus.regular_genus(t, args.order)
    kind, case = ramgenus.classify_type(t)
    doc = {"type": list(t), "order": args.order, "genus": g,
           "classification": kind}
    if case:
        doc["case"] = case
    print(json.dumps(doc, indent=2))
    return 0


def cmd_genus0(args):
    G = load_group(args.group)
    types = ramgenus.genus0_search(G, r_max=args.rmax)
    print(json.dumps({"degree": G.degree, "order": G.order,
                      "types": [list(t) for t in types]}, indent=2))
    return 0


def cmd_family(args):
    if args.family == "dickson":
        f = funfam.dickson(args.n, Fraction(args.a))
    elif args.family == "redei":
        f = funfam.redei(args.n, Fraction(args.d))
    elif args.family == "a4s4":
        f = funfam.a4s4_function(Fraction(args.p), Fraction(args.q))
    elif args.family == "isogeny5":
        f = funfam.sporadic_degree5()
    elif args.family == "cm7":
        f = funfam.cm7_function(Fraction(args.B))
    else:
        raise ValueError(f"unknown family {args.family}")
    print(format_ratfunc(f))
    return 0


def cmd_ell(args):
    if args.action != "descend":
        raise ValueError("supported action: descend")
    E = ellipt.EllCurve(QQ, Fraction(args.a), Fraction(args.b))
    R = ellipt.quotient_descent(E, args.m, args.beta)
    text = format_ratfunc(R)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify_paper(args):
    targets = args.targets or sorted(VERIFY_TARGETS)
    all_ok = True
    for name in targets:
        if name not in VERIFY_TARGETS:
            print(f"unknown target {name}", file=sys.stderr)
            return 2
        print(f"== {name} ==")
        ok = VERIFY_TARGETS[name](lambda s: print("  " + s))
        print(f"== {name}: {'ok' if ok else 'FAILED'} ==")
        all_ok &= ok
    return 0 if all_ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="schurscope",
        description="rational functions that permute the projective line "
                    "modulo infinitely many primes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sweep", help="test bijectivity mod every odd prime up to a bound")
    p.add_argument("--function", required=True,
                   help="builtin:NAME, a file, or literal text")
    p.add_argument("--bound", type=int, default=500)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("exceptional", help="common-orbit exceptionality test")
    p.add_argument("--group", required=True, help="JSON file for A")
    p.add_argument("--normal", required=True, help="JSON file for G")
    p.add_argument("--arith", action="store_true")
    p.set_defaults(fn=cmd_exceptional)

    p = sub.add_parser("genus", help="regular genus of a ramification type")
    p.add_argument("--type", required=True, help="comma-separated, e.g. 2,3,8")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("genus0", help="search genus-0 generating systems")
    p.add_argument("--group", required=True)
    p.add_argument("--rmax", type=int, default=5)
    p.set_defaults(fn=cmd_genus0)

    p = sub.add_parser("family", help="print a family member in text form")
    p.add_argument("family", choices=["dickson", "redei", "a4s4",
                                      "isogeny5", "cm7"])
    p.add_argument("--n", type=int)
    p.add_argument("--a", default="1")
    p.add_argument("--d", default="3")
    p.add_argument("--p", default="0")
    p.add_argument("--q", default="2")
    p.add_argument("--B", default="1")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("ell", help="elliptic quotient descents")
    p.add_argument("action", choices=["descend"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ell)

    p = sub.add_parser("verify-paper",
                       help="recompute the headline tables and verdicts")
    p.add_argument("targets", nargs="*",
                   help=f"subset of {sorted(VERIFY_TARGETS)}; default all")
    p.set_defaults(fn=cmd_verify_paper)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
