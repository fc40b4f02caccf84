"""The benchmark's three workloads.

``build(name, seed, smoke)`` makes a workload's inputs from the seed and
returns a ``Plan``: the operations of one round, the operations that are
kept as known failures, and the check of a round's answers against
``oracles``.  Every operation calls schurscope through its module
attributes (``projmap.schur_sweep``, ``exceptio.is_exceptional``, ...), so
the traced run can wrap those entry points from outside the package.

A round builds every group it uses afresh: stabilizer chains and element
lists are cached on ``PermGroup`` objects, and a round that reused the
previous round's groups would not repeat its work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import oracles
from schurscope import cli, exceptio, funfam, permcore, projmap, ramgenus
from schurscope.exactalg import Poly, RatFunc


@dataclass
class Plan:
    ops: list  # (name, fn); fn(out) -> answer, out holds earlier answers
    check: Callable  # check(out) -> list of error strings
    expected_failures: dict = field(default_factory=dict)  # name -> type


WORKLOADS = ("sweep", "exceptional", "genus0")


def build(name, seed, smoke=False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return globals()[f"_{name}"](random.Random(seed), smoke)


def _answers(out):
    """The answers of the operations that did not raise."""
    return {k: v for k, v in out.items() if not isinstance(v, Exception)}


def _relabel(images_list, sigma):
    """Conjugate permutations (image lists) by the relabelling i -> sigma[i]."""
    inv = [0] * len(sigma)
    for i, x in enumerate(sigma):
        inv[x] = i
    return [[sigma[g[inv[i]]] for i in range(len(sigma))] for g in images_list]


def _shuffled(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


# ---------------------------------------------------------------------------
# sweep: the sweep engine (projmap) and reduction (exactalg), no permcore

def _reflect(f, sign):
    """f(sign * x) for sign = +-1.  x -> -x permutes P^1(F_p) at every prime
    and keeps the degrees and the size of every coefficient, so every sweep
    verdict, and the work of the sweep, is that of f."""
    t = Poly(f.field, [0, sign])
    return RatFunc(f.num.compose(t), f.den.compose(t))


# prime bounds of the F_p families' sweeps and of the cm7 sweep
SWEEP_BOUNDS = {False: (700, 80), True: (60, 40)}  # by smoke


def _sweep(rng, smoke):
    fp_bound, cm7_bound = SWEEP_BOUNDS[smoke]
    sign = rng.choice((1, -1))
    families = [
        ("isogeny5", funfam.sporadic_degree5(), oracles.isogeny5_predicate),
        ("a4s4(0,2)", funfam.a4s4_function(0, 2), oracles.a4s4_predicate(2)),
        ("dickson(3,1)", funfam.dickson(3, 1), oracles.dickson_predicate(3)),
        ("dickson(5,1)", funfam.dickson(5, 1), oracles.dickson_predicate(5)),
        ("dickson(7,1)", funfam.dickson(7, 1), oracles.dickson_predicate(7)),
        ("redei3comp", cli.builtin_function("builtin:redei3comp"),
         oracles.redei3comp_predicate),
    ]
    families = [(n, _reflect(f, sign), pred) for n, f, pred in families]
    cm7 = _reflect(funfam.cm7_function(1), sign)
    # the kept failure runs on the plain function, the same for every
    # seed: q + 1 = 1031^2 + 1 exceeds the point cap
    cm7_plain = funfam.cm7_function(1)

    def sweeper(f, bound):
        return lambda out: projmap.schur_sweep(f, bound)

    ops = [(f"fp:{n}", sweeper(f, fp_bound)) for n, f, _ in families]
    ops.append(("fq2:cm7", sweeper(cm7, cm7_bound)))
    ops.append(("probe:cm7@1031",
                lambda out: projmap.sweep_prime(cm7_plain, 1031)))

    def check(out):
        got = _answers(out)
        errors = []
        for n, f, pred in families:
            if f"fp:{n}" in got:
                errors += oracles.check_sweep(n, got[f"fp:{n}"], fp_bound,
                                              f.num.coeffs, f.den.coeffs, pred)
        if "fq2:cm7" in got:
            errors += oracles.check_cm7_sweep(got["fq2:cm7"], cm7_bound,
                                              oracles.Cm7Evaluator(sign))
        rec = got.get("probe:cm7@1031")
        if rec is not None:
            want = oracles.Cm7Evaluator(1).verdict(1031)
            if (rec.place_degree, rec.verdict) != want:
                errors.append(f"cm7 at 1031: {rec} against {want}")
        return errors

    return Plan(ops, check, {"probe:cm7@1031": projmap.PointCapExceeded})


# ---------------------------------------------------------------------------
# exceptional: Schreier-Sims and pair orbits (permcore) under exceptio

S3 = [[1, 0, 2], [1, 2, 0]]
C3 = [[1, 2, 0]]
C7 = [[1, 2, 3, 4, 5, 6, 0]]
S4 = [[1, 0, 2, 3], [1, 2, 3, 0]]
A4 = [[1, 2, 0, 3], [1, 0, 3, 2]]


def _pair(n, a_gens, g_gens):
    """Fresh groups A and G on n points, from generator image lists."""
    return permcore.PermGroup(n, a_gens), permcore.PermGroup(n, g_gens)


def _exceptional(rng, smoke):
    # (name, generators of L, |L|, |Z(L)|, t): L wr C_t on |L|^(t-1)
    # points, exceptional exactly when gcd(t, |L|) = 1; the action's kernel
    # is the diagonal copy of the centre Z(L)
    wreaths = [("S3", S3, 6, 1, 2), ("S3", S3, 6, 1, 3)]
    if not smoke:
        wreaths.append(("C7", C7, 7, 7, 4))
    small = {}
    for k, n, a, g in (("S3/C3", 3, S3, C3), ("S4/A4", 4, S4, A4)):
        sigma = _shuffled(rng, n)
        small[k] = (n, _relabel(a, sigma), _relabel(g, sigma))
    sigma28, sigma45 = _shuffled(rng, 28), _shuffled(rng, 45)
    probe = None
    if not smoke:
        # D_2003 > C_2003 on F_2003: exceptional, since A_0 = <-1> and
        # G_0 = 1; its 2003^2 pairs exceed PAIR_CAP
        A, G = exceptio.build_scalar_example(2003, 1, [], 2)
        probe = (A.degree, [g.images for g in A.gens],
                 [g.images for g in G.gens])

    def coset_pair(make, sigma):
        def op(out):
            act, g_nat = make()
            A = act.group
            g_gens = [act.image(g).images for g in g_nat.gens]
            return _pair(A.degree, _relabel([g.images for g in A.gens], sigma),
                         _relabel(g_gens, sigma))
        return op

    ops = []
    for k, (n, a, g) in small.items():
        ops.append((f"{k}:is_exceptional",
                    lambda out, n=n, a=a, g=g:
                    exceptio.is_exceptional(*_pair(n, a, g))))
    for name, gens, _, _, t in wreaths:
        key = f"{name}wr{t}"
        ops.append((f"{key}:build",
                    lambda out, gens=gens, t=t:
                    exceptio.build_wreath_diagonal_example(
                        permcore.PermGroup(len(gens[0]), gens), t)))
        ops.append((f"{key}:is_exceptional",
                    lambda out, key=key: exceptio.is_exceptional(
                        *out[f"{key}:build"][:2])))
    for deg, make, sigma in (
            (28, lambda: permcore.psl2_torus_coset_action(8, "pgammal"),
             sigma28),
            (45, lambda: permcore.psl2_sylow2_coset_action(9, "m10"),
             sigma45)):
        ops.append((f"deg{deg}:build", coset_pair(make, sigma)))
        ops.append((f"deg{deg}:is_exceptional",
                    lambda out, d=deg: exceptio.is_exceptional(
                        *out[f"deg{d}:build"])))
        ops.append((f"deg{deg}:arith",
                    lambda out, d=deg: exceptio.is_arithmetically_exceptional(
                        *out[f"deg{d}:build"])))
    if probe is not None:
        ops.append(("probe:affine2003",
                    lambda out: exceptio.is_exceptional(*_pair(*probe))))

    def check(out):
        got = _answers(out)
        errors = []

        def check_r(key, n, a_gens, g_gens):
            v = got.get(f"{key}:is_exceptional")
            if v is None or n > 45:
                return
            r = oracles.common_orbit_count(a_gens, g_gens, n)
            if v.r != r or v.exceptional != (r == 1):
                errors.append(f"{key}: r={v.r} exceptional={v.exceptional}, "
                              f"union-find r={r}")

        for k, (n, a, g) in small.items():
            check_r(k, n, a, g)
        want = {"S3/C3": True, "S4/A4": False}
        for k, w in want.items():
            v = got.get(f"{k}:is_exceptional")
            if v is not None and v.exceptional != w:
                errors.append(f"{k}: exceptional={v.exceptional}")

        for name, _, size, centre, t in wreaths:
            key = f"{name}wr{t}"
            built = got.get(f"{key}:build")
            if built is None:
                continue
            A, G, _ = built
            g_order = size ** t // centre
            if (A.degree, G.order, A.order) != (size ** (t - 1), g_order,
                                                g_order * t):
                errors.append(f"{key}: degree {A.degree}, orders "
                              f"{G.order}/{A.order}")
            v = got.get(f"{key}:is_exceptional")
            rule = gcd(t, size) == 1
            if v is not None and v.exceptional != rule:
                errors.append(f"{key}: exceptional={v.exceptional}, "
                              f"gcd rule says {rule}")
            check_r(key, A.degree, [g.images for g in A.gens],
                    [g.images for g in G.gens])

        orders = {28: (504, 1512), 45: (360, 720)}
        for deg, (g_order, a_order) in orders.items():
            built = got.get(f"deg{deg}:build")
            if built is None:
                continue
            A, G = built
            a_gens = [g.images for g in A.gens]
            g_gens = [g.images for g in G.gens]
            g_els = oracles.closure(g_gens, deg)
            if (A.degree, len(g_els), len(oracles.closure(a_gens, deg))) != \
                    (deg, g_order, a_order):
                errors.append(f"degree {deg}: wrong degree or group orders")
            check_r(f"deg{deg}", deg, a_gens, g_gens)
            arith = got.get(f"deg{deg}:arith")
            if arith is None:
                continue
            x = arith.witness
            if not arith.arithmetically_exceptional or x is None \
                    or x.images in g_els:
                errors.append(f"degree {deg}: no arithmetic witness outside G")
            elif deg == 28 and oracles.element_order(x.images) % 3:
                errors.append("degree 28: witness order not divisible by 3")

        v = got.get("probe:affine2003")
        if v is not None and (not v.exceptional or v.r != 1):
            errors.append(f"affine 2003: {v}, expected exceptional with r=1")
        return errors

    return Plan(ops, check, {"probe:affine2003": permcore.CapExceeded})


# ---------------------------------------------------------------------------
# genus0: enumeration, classes and coset actions (permcore) under ramgenus

PAPER_TYPES = {28: [(2, 2, 2, 3), (2, 3, 7), (2, 3, 9)], 45: [(2, 4, 5)]}
# (fixed points, index) of elements of orders 2 and 3 in the torus coset
# action: the paper's degree-496 table, and the degree-28 values (involutions
# fix 4 points, elements of order 3 fix one)
PAPER_CHI = {496: {2: (16, 240), 3: (1, 330)}, 28: {2: (4, 12), 3: (1, 18)}}


def _genus0(rng, smoke):
    q = 8 if smoke else 16  # classes of PSL2(q) on its q + 1 points
    chi_deg = 28 if smoke else 496
    actions = {28: lambda: permcore.psl2_torus_coset_action(8, "psl"),
               45: lambda: permcore.psl2_sylow2_coset_action(9, "psl")}
    if not smoke:
        # for the fixed-point table only: its genus-0 search alone takes
        # about 27 s, several rounds' worth
        actions[496] = lambda: permcore.psl2_torus_coset_action(32, "psl")
    # the group of the fixed-point table keeps its labels: the chain of
    # the stabilizer H, built from many Schreier generators, costs more or
    # less with the base point the labels pick
    sigmas = {deg: _shuffled(rng, deg) if deg in PAPER_TYPES
              else list(range(deg)) for deg in actions}
    stab_point = 0
    walk = [rng.random() for _ in range(400)]

    def build_op(deg):
        def op(out):
            act, _ = actions[deg]()
            gens = _relabel([g.images for g in act.group.gens], sigmas[deg])
            return permcore.PermGroup(deg, gens)
        return op

    def chi_inputs(out):
        """The point stabilizer H and an element of each order in `PAPER_CHI`,
        found by a seeded random walk on the generators."""
        G = out[f"deg{chi_deg}:build"]
        H = permcore.PermGroup(G.degree, G.stabilizer_gens(stab_point))
        els, cur = {}, G.gens[0]
        for u in walk:
            o = cur.order()
            for d in PAPER_CHI[chi_deg]:
                if d not in els and o % d == 0:
                    els[d] = cur ** (o // d)
            if len(els) == len(PAPER_CHI[chi_deg]):
                break
            cur = cur * G.gens[int(u * len(G.gens))]
        return H, els

    ops = []
    for deg in actions:
        ops.append((f"deg{deg}:build", build_op(deg)))
        if deg in PAPER_TYPES:
            ops.append((f"deg{deg}:genus0", lambda out, d=deg:
                        ramgenus.genus0_search(out[f"deg{d}:build"])))
    ops.append((f"classes:psl2({q})", lambda out: permcore.conjugacy_classes(
        permcore.psl2(q)[0])))
    ops.append(("chi:inputs", chi_inputs))
    for d in PAPER_CHI[chi_deg]:
        def chi(out, d=d):
            H, els = out["chi:inputs"]
            G = out[f"deg{chi_deg}:build"]
            return (exceptio.chi_fixed_points(G, H, els[d]),
                    ramgenus.ind(els[d]))
        ops.append((f"chi:order{d}", chi))

    def check(out):
        got = _answers(out)
        errors = []
        for deg, want in PAPER_TYPES.items():
            types = got.get(f"deg{deg}:genus0")
            if types is not None and types != want:
                errors.append(f"degree {deg}: genus-0 types {types}, "
                              f"paper {want}")
        for deg in actions:
            G = got.get(f"deg{deg}:build")
            if G is not None and len(oracles.orbit(
                    [g.images for g in G.gens], 0)) != deg:
                errors.append(f"the degree-{deg} action is not transitive")
        classes = got.get(f"classes:psl2({q})")
        if classes is not None:
            sizes = sorted(len(c) for c in classes)
            if len(classes) != q + 1 or sum(sizes) != q * (q * q - 1) \
                    or sizes != oracles.psl2_even_class_sizes(q):
                errors.append(f"PSL2({q}): {len(classes)} classes of sizes "
                              f"summing to {sum(sizes)}")
            if any(len({oracles.element_order(c.images) for c in cls}) != 1
                   for cls in classes):
                errors.append(f"PSL2({q}): a class mixes element orders")
        inputs = got.get("chi:inputs")
        if inputs is not None:
            H, els = inputs
            if any(g.images[stab_point] != stab_point for g in H.gens):
                errors.append("H does not fix the chosen point")
            for d, (chi_want, ind_want) in PAPER_CHI[chi_deg].items():
                res = got.get(f"chi:order{d}")
                if res is None:
                    continue
                cycles = oracles.cycle_lengths(els[d].images)
                own = (cycles.count(1), chi_deg - len(cycles))
                if oracles.element_order(els[d].images) != d or res != own \
                        or own != (chi_want, ind_want):
                    errors.append(f"order {d}: (chi, ind) = {res}, cycle "
                                  f"counts {own}, paper "
                                  f"{(chi_want, ind_want)}")
        return errors

    return Plan(ops, check)
