"""Exceptionality of pairs G normal in A acting on a common point set.

A "common orbit" is an orbit of A on ordered pairs that consists of a single
G-orbit.  The diagonal is always one (both groups transitive), and the pair
(A, G) is exceptional when it is the only one.  Arithmetic exceptionality asks
for some intermediate B = <G, x> with cyclic quotient that is exceptional.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .permcore import (
    ENUM_CAP,
    CapExceeded,
    CosetAction,
    DegreeMismatch,
    NotASubgroup,
    Perm,
    PermGroup,
    check_pair_cap,
    conjugacy_class,
    orbits_on_pairs,
    right_coset_key,
)

INDEX_CAP = 1000


class NotNormal(ValueError):
    pass


class NotTransitive(ValueError):
    pass


class ExceptionalityVerdict:
    """Outcome of the common-orbit test.

    r counts the common orbits (>= 1, the diagonal); exceptional iff r == 1.
    witness is the smallest pair of some off-diagonal common orbit when the
    verdict is negative, else None.
    """

    def __init__(self, exceptional, r, witness=None):
        self.exceptional = exceptional
        self.r = r
        self.witness = witness

    def __repr__(self):
        return (f"ExceptionalityVerdict(exceptional={self.exceptional}, "
                f"r={self.r}, witness={self.witness})")


class ArithVerdict:
    def __init__(self, arithmetically_exceptional, witness=None):
        self.arithmetically_exceptional = arithmetically_exceptional
        self.witness = witness  # coset element x with <G, x> exceptional

    def __repr__(self):
        return (f"ArithVerdict({self.arithmetically_exceptional}, "
                f"witness={self.witness!r})")


def _check_normal(A, G):
    if A.degree != G.degree:
        raise DegreeMismatch("A and G act on different point sets")
    for g in G.gens:
        if g not in A:
            raise NotASubgroup("G is not contained in A")
    for a in A.gens:
        ai = a.inverse()
        for g in G.gens:
            if ai * g * a not in G:
                raise NotNormal("G is not normalized by A")


def common_orbits(A, G):
    """List of common orbits of (A, G), each reported by its smallest pair.

    A common orbit is an A-orbit on ordered pairs equal to a single G-orbit.
    The degrees and the pair cap are checked before any chain is built.
    """
    if A.degree != G.degree:
        raise DegreeMismatch("A and G act on different point sets")
    n = A.degree
    check_pair_cap(n)
    _check_normal(A, G)
    if not G.is_transitive():
        raise NotTransitive("G must be transitive")
    g_orbs = orbits_on_pairs(G.gens, n)
    a_orbs = orbits_on_pairs(A.gens, n)
    # a label is the least pair of its orbit, and G-orbits refine A-orbits:
    # an A-orbit is one G-orbit exactly when every pair in it has equal labels
    a, g = a_orbs.labels, g_orbs.labels
    split = np.zeros(n * n, dtype=bool)
    split[a[a != g]] = True
    common = np.flatnonzero((a == np.arange(n * n, dtype=a.dtype)) & ~split)
    return [divmod(int(lab), n) for lab in common]


def is_exceptional(A, G):
    """Common-orbit test: exceptional iff the diagonal is the only A-orbit on
    pairs that is a single G-orbit."""
    reps = common_orbits(A, G)
    off = [p for p in reps if p[0] != p[1]]
    if off:
        return ExceptionalityVerdict(False, len(reps), witness=off[0])
    return ExceptionalityVerdict(True, len(reps))


def coset_representatives(A, G, index_cap=INDEX_CAP):
    """Right-coset representatives of G in A, identity first."""
    for g in G.gens:
        if g not in A:
            raise NotASubgroup("G is not contained in A")
    index = A.order // G.order
    if index > index_cap:
        raise CapExceeded(f"index {index} exceeds cap {index_cap}")
    reps = [Perm.identity(A.degree)]
    queue = [reps[0]]
    while queue and len(reps) < index:
        r = queue.pop(0)
        for s in A.gens:
            cand = r * s
            if not any(cand * t.inverse() in G for t in reps):
                reps.append(cand)
                queue.append(cand)
    return reps


def is_arithmetically_exceptional(A, G, index_cap=INDEX_CAP):
    """Search the cosets xG for one with (<G, x>, G) exceptional.

    Only subgroups B with B/G cyclic arise this way, which is exactly the
    shape needed for bijectivity over infinitely many residue fields.
    """
    _check_normal(A, G)
    for x in coset_representatives(A, G, index_cap):
        if x in G:
            continue
        B = PermGroup(A.degree, list(G.gens) + [x])
        if is_exceptional(B, G).exceptional:
            return ArithVerdict(True, witness=x)
    return ArithVerdict(False)


# ---------------------------------------------------------------------------
# fixed-point counts

def _is_point_stabilizer(G, H):
    """The point fixed by H with |H| * degree = |G|, or None."""
    fixed = set(range(G.degree))
    for h in H.gens:
        fixed &= set(h.fixed_points())
    for pt in sorted(fixed):
        if H.order * len(G.orbit(pt)) == G.order:
            return pt
    return None


def chi_fixed_points(G, H, g, cap=ENUM_CAP):
    """Fixed points of g on the points, computed two ways.

    Direct count, and the class formula: sum of [C_G(g_i) : C_H(g_i)] over
    representatives g_i of the H-classes inside g^G intersect H.  Both must
    agree; the common value is returned.
    """
    if _is_point_stabilizer(G, H) is None:
        raise ValueError("H is not a point stabilizer of G")
    direct = len(g.fixed_points())

    cls = conjugacy_class(G, g, cap)
    cls_keys = {c.images for c in cls}
    cg_order = G.order // len(cls)  # |C_G(g)| = |G| / |g^G|
    h_els = H.elements(cap)
    in_h = [h for h in h_els if h.images in cls_keys]
    remaining = {h.images for h in in_h}
    formula = 0
    for h in in_h:
        if h.images not in remaining:
            continue
        h_cls = {(s.inverse() * h * s).images for s in h_els}
        remaining -= h_cls
        ch_order = len(h_els) // len(h_cls)
        formula += cg_order // ch_order
    if formula != direct:
        raise AssertionError(
            f"fixed-point count mismatch: direct {direct}, formula {formula}")
    return direct


def coset_average_fixed_points(A, G, x, cap=ENUM_CAP):
    """(1/|G|) * sum over g in G of the fixed points of xg on ordered pairs.

    An element fixes (a, b) exactly when it fixes both points, so the
    per-element count is the square of the plain fixed-point count.  The
    average equals the number of common orbits of (<G, x>, G) on pairs; in
    particular it is 1 exactly when that pair is exceptional.
    """
    if x not in A:
        raise NotASubgroup("x is not in A")
    els = G.elements(cap)
    total = sum(len((x * g).fixed_points()) ** 2 for g in els)
    return Fraction(total, len(els))


def class_is_rational_in(A, sigma, cap=ENUM_CAP):
    """Whether sigma^m is A-conjugate to sigma for every m coprime to its order."""
    cls = {c.images for c in conjugacy_class(A, sigma, cap)}
    o = sigma.order()
    return all((sigma ** m).images in cls
               for m in range(1, o) if gcd(m, o) == 1)


# ---------------------------------------------------------------------------
# constructions

def build_wreath_diagonal_example(L, t, enum_cap=ENUM_CAP):
    """The wreath-product family: G = L^t inside A = L wr C_t, with point
    stabilizer M generated by the diagonal copy of L and the coordinate cycle.

    L acts on d points; A is built on t*d points (t blocks) and then moved to
    the cosets of M, degree |L|^(t-1).  The triple is exceptional exactly when
    gcd(t, |L|) = 1.
    Returns (A_on_cosets, G_on_cosets, coset_action).
    """
    if t < 2:
        raise ValueError("need t >= 2")
    d = L.degree
    n = t * d

    def shift(g, block):
        images = list(range(n))
        for i in range(d):
            images[block * d + i] = block * d + g.images[i]
        return Perm(images)

    cycle = Perm([(i + d) % n for i in range(n)])
    base_gens = [shift(g, b) for b in range(t) for g in L.gens]
    A = PermGroup(n, base_gens + [cycle])
    G = PermGroup(n, base_gens)
    if A.order > enum_cap:
        raise CapExceeded(f"|A| = {A.order} exceeds cap {enum_cap}")
    diag = [Perm([b * d + g.images[i] for b in range(t) for i in range(d)])
            for g in L.gens]
    M = PermGroup(n, diag + [cycle])
    act = CosetAction(A, M)
    A2 = PermGroup(act.group.degree, [act.image(g) for g in A.gens])
    G2 = PermGroup(act.group.degree, [act.image(g) for g in G.gens])
    return A2, G2, act


def build_scalar_example(p, e, h_matrices, r):
    """Affine example on F_p^e: A = V . (H x <scalar of order r>), G = V . H.

    Requires r | p-1, r > 1, H with no element of order r, and H acting
    faithfully on V (an added hypothesis; a non-faithful H would collapse the
    semidirect structure).  Returns (A, G) acting on the p^e vectors.
    """
    from .permcore import AffineSpace

    if r <= 1:
        raise ValueError("need r > 1")
    if (p - 1) % r != 0:
        raise ValueError("r must divide p - 1")
    space = AffineSpace(p, e)
    h_perms = [space.linear(m) for m in h_matrices]
    ident = Perm.identity(space.n)
    H = PermGroup(space.n, h_perms or [ident])
    if len(H.elements()) != H.order:
        raise ValueError("H enumeration inconsistent")
    if any(h.order() == r for h in H.elements()):
        raise ValueError("H contains an element of order r")
    if h_matrices and H.order == 1:
        raise ValueError("H must act faithfully")
    # scalar of multiplicative order exactly r
    s = None
    for c in range(2, p):
        if pow(c, r, p) == 1 and all(pow(c, r // q, p) != 1
                                     for q in _prime_divisors(r)):
            s = c
            break
    if s is None:
        raise ValueError("no scalar of order r found")
    scalar = space.map_perm(lambda v: tuple(s * a % p for a in v))
    basis = [space.translation(tuple(1 if j == i else 0 for j in range(e)))
             for i in range(e)]
    G = PermGroup(space.n, basis + h_perms)
    A = PermGroup(space.n, basis + h_perms + [scalar])
    return A, G


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def excomp_decompose(A, G, M, U):
    """Exceptionality through a subgroup chain M < U < A with A = GM.

    Returns the verdicts of (A, G, A/M), (A, G, A/U) and (U, G n U, U/M) and
    asserts the first holds exactly when the other two both do.
    """
    for g in M.gens:
        if g not in U:
            raise NotASubgroup("M is not contained in U")
    for g in U.gens:
        if g not in A:
            raise NotASubgroup("U is not contained in A")
    # A = GM: the cosets of G met by M must be all of them
    key = right_coset_key(G)
    gm_count = len({key(m) for m in M.elements()})
    if gm_count != A.order // G.order:
        raise ValueError("A = GM fails")

    act_m = CosetAction(A, M)
    v1 = is_exceptional(
        PermGroup(act_m.group.degree, [act_m.image(g) for g in A.gens]),
        PermGroup(act_m.group.degree, [act_m.image(g) for g in G.gens]))

    act_u = CosetAction(A, U)
    v2 = is_exceptional(
        PermGroup(act_u.group.degree, [act_u.image(g) for g in A.gens]),
        PermGroup(act_u.group.degree, [act_u.image(g) for g in G.gens]))

    gu = [h for h in U.elements() if h in G]
    GU = PermGroup(A.degree, gu or [Perm.identity(A.degree)])
    act_um = CosetAction(U, M)
    v3 = is_exceptional(
        PermGroup(act_um.group.degree, [act_um.image(g) for g in U.gens]),
        PermGroup(act_um.group.degree, [act_um.image(g) for g in GU.gens]))

    if v1.exceptional != (v2.exceptional and v3.exceptional):
        raise AssertionError("decomposition identity violated: "
                             f"{v1.exceptional} vs {v2.exceptional} and {v3.exceptional}")
    return v1.exceptional, v2.exceptional, v3.exceptional

