"""Exceptionality of pairs G normal in A acting on a common point set.

A "common orbit" is an orbit of A on ordered pairs that consists of a single
G-orbit.  The diagonal is always one (both groups transitive), and the pair
(A, G) is exceptional when it is the only one.  Arithmetic exceptionality asks
for some intermediate B = <G, x> with cyclic quotient that is exceptional.

Suborbit criterion (Fried-Guralnick-Saxl 1993): with bp the first base point
of G's chain, an A-orbit on pairs is one G-orbit exactly when the A_0-orbit of
the points it pairs with bp is one G_0-orbit.  For a in A let t in G be the
stored inverse representative at a(bp), so y_a = a t fixes bp.  As G is
transitive, A = G A_0, hence A_0 = G_0 <y_a : a generates A>, and the common
orbits are the G_0-orbits that every y_a maps onto themselves.  For B = <G, x>,
y_x alone decides: no chain of B is built.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .permcore import (
    CapExceeded,
    CosetAction,
    DegreeMismatch,
    NotASubgroup,
    Perm,
    PermGroup,
    _ChainLevel,
    _class_labels,
    _effective_gens,
    _perm_rows,
    _rank_rows,
    _rank_space,
    check_enum_cap,
    check_pair_cap,
    orbits_on_pairs,  # noqa: F401  perfbench/tracer.py patches exceptio.orbits_on_pairs
    prime_divisors,
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
    """Refuse (A, G) unless G is a transitive normal subgroup of A. The
    degrees and the pair cap are checked before any chain is built. G's
    generators are sifted through A in one call, and the conjugates of G's
    generators by A's through G in another."""
    if A.degree != G.degree:
        raise DegreeMismatch("A and G act on different point sets")
    check_pair_cap(A.degree)
    g_rows = _perm_rows(G.gens, G.degree)
    if A.first_outside(g_rows) >= 0:
        raise NotASubgroup("G is not contained in A")
    # a^-1 * g * a maps x to a(g(a^-1(x))); A's generators major, G's minor
    conjugates = [a[g_rows[:, np.argsort(a)]]
                  for a in _perm_rows(A.gens, A.degree)]
    if G.first_outside(np.concatenate([g_rows[:0], *conjugates])) >= 0:
        raise NotNormal("G is not normalized by A")
    if not G.is_transitive():
        raise NotTransitive("G must be transitive")


def _suborbit_test(G):
    """The function xs -> the sorted least pairs of the common orbits of
    (<G, xs>, G): the G_0-orbits that y_x maps onto themselves for every x in
    xs (see the module docstring), each named by its least point after the
    element that takes bp to 0."""
    G._build_chain()
    # the trivial group is transitive on one point only
    lvl = G._chain[0] if G._chain else _ChainLevel(0, G.degree)
    bp, position = lvl.base_point, lvl.position
    to0 = lvl.forward[position[0]].tolist()
    G0 = PermGroup(G.degree, _effective_gens(G._chain, 1))
    named = [(min(to0[p] for p in orb), orb[0], set(orb)) for orb in G0.orbits()]

    def common(xs):
        # y_x = x t, t the stored inverse representative at x(bp), normalizes
        # G_0, so one point of a G_0-orbit shows where it goes
        ys = [lvl.table[position[x.images[bp]]].take(x.images).tolist()
              for x in xs]
        return sorted((0, v) for v, p, orb in named if all(y[p] in orb for y in ys))

    return common


def _verdict(reps):
    off = [p for p in reps if p[0] != p[1]]
    if off:
        return ExceptionalityVerdict(False, len(reps), witness=off[0])
    return ExceptionalityVerdict(True, len(reps))


def common_orbits(A, G):
    """List of common orbits of (A, G), each reported by its smallest pair.

    A common orbit is an A-orbit on ordered pairs equal to a single G-orbit.
    The degrees and the pair cap are checked before any chain is built.
    """
    _check_normal(A, G)
    return _suborbit_test(G)(A.gens)


def is_exceptional(A, G):
    """Common-orbit test: exceptional iff the diagonal is the only A-orbit on
    pairs that is a single G-orbit."""
    return _verdict(common_orbits(A, G))


def coset_verdicts(A, G):
    """(x, verdict of (<G, x>, G)) for x in `CosetAction(A, G).reps`, the
    right-coset representatives breadth first, identity first. The degrees
    and the pair cap are checked before any chain is built, and the index
    cap before any coset is."""
    _check_normal(A, G)
    if A.order // G.order > INDEX_CAP:
        raise CapExceeded(f"index {A.order // G.order} exceeds cap {INDEX_CAP}")
    common = _suborbit_test(G)
    for x in CosetAction(A, G).reps:
        yield x, _verdict(common([x]))


def is_arithmetically_exceptional(A, G):
    """Search the cosets xG for one with (<G, x>, G) exceptional.

    Only subgroups B with B/G cyclic arise this way, which is exactly the
    shape needed for bijectivity over infinitely many residue fields.
    """
    verdicts = coset_verdicts(A, G)
    next(verdicts)  # the identity coset, G itself
    for x, v in verdicts:
        if v.exceptional:
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


def chi_fixed_points(G, H, g):
    """Fixed points of g on the points, computed two ways.

    Direct count, and the class formula: sum of [C_G(g_i) : C_H(g_i)] over
    representatives g_i of the H-classes inside g^G intersect H.  Both must
    agree; the common value is returned.

    g^G is a mask on the ranks of G's chain, found breadth first from g's
    rank under conjugation by the generators; H's elements are tested by
    their ranks in G's chain, and the H-classes are H's class labels. g and
    H must lie in G (else NotASubgroup), and |G| must be at most ENUM_CAP
    (else CapExceeded).
    """
    if _is_point_stabilizer(G, H) is None:
        raise ValueError("H is not a point stabilizer of G")
    direct = len(g.fixed_points())

    _, conjugates, rank = _rank_space(G)
    rows = _perm_rows([g, *H.gens], G.degree)
    if G.first_outside(rows) >= 0:
        raise NotASubgroup("g or H is not in G")
    in_cls = np.zeros(G.order, dtype=bool)
    frontier = rank(rows[:1])
    in_cls[frontier] = True
    while len(frontier):
        reached = np.unique(conjugates(frontier))
        frontier = reached[~in_cls[reached]]
        in_cls[frontier] = True
    cg_order = G.order // np.count_nonzero(in_cls)  # |C_G(g)| = |G| / |g^G|

    h_images, h_conjugates, _ = _rank_space(H)
    labels, _, sizes = _class_labels(H, h_conjugates)
    h_rows = h_images(np.arange(H.order), np.arange(H.degree))
    formula = 0
    for c in np.unique(labels[in_cls[rank(h_rows)]]).tolist():
        ch_order = H.order // int(sizes[c])  # |C_H(h)| = |H| / |h^H|
        formula += cg_order // ch_order
    if formula != direct:
        raise AssertionError(
            f"fixed-point count mismatch: direct {direct}, formula {formula}")
    return direct


def coset_average_fixed_points(A, G, x):
    """(1/|G|) * sum over g in G of the fixed points of xg on ordered pairs.

    An element fixes (a, b) exactly when it fixes both points, so the
    per-element count is the square of the plain fixed-point count.  The
    average equals the number of common orbits of (<G, x>, G) on pairs; in
    particular it is 1 exactly when that pair is exceptional.
    """
    if x not in A:
        raise NotASubgroup("x is not in A")
    # x*g fixes i exactly when g maps x(i) to i, so count the j = x(i) with
    # g(j) = x^-1(j): one comparison per block of G's rows
    x_inv = np.array(x.inverse().images, dtype=np.uint16)
    images, _, _ = _rank_space(G)
    total = 0
    for block in _rank_rows(images, np.arange(G.order), G.degree):
        fixed = np.count_nonzero(block == x_inv, axis=1)
        total += int(fixed @ fixed)
    return Fraction(total, G.order)


# ---------------------------------------------------------------------------
# constructions

def build_wreath_diagonal_example(L, t):
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
    check_enum_cap(A)
    diag = [Perm([b * d + g.images[i] for b in range(t) for i in range(d)])
            for g in L.gens]
    M = PermGroup(n, diag + [cycle])
    act = CosetAction(A, M)
    return act.group, act.image_group(G), act


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
                                     for q in prime_divisors(r)):
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
