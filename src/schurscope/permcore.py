"""Permutation-group engine: Schreier-Sims stabilizer chains, orbits on
points and pairs, elements and conjugacy classes by bounded enumeration,
cyclic normalizers by a backtrack search over the chain, coset actions, and
named group constructors (PSL/PGammaL over small fields, M10, affine spaces,
the actions on 2-sets and on torus normalizer cosets)."""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from math import gcd
from operator import itemgetter

import numpy as np

DEGREE_CAP = 4096
ENUM_CAP = 200_000
# bounds n*n, for an exceptionality verdict: the entries of the level-0
# transversal of G's chain, n uint16 rows of n inverse coset representatives
PAIR_CAP = 4_000_000


class DegreeMismatch(ValueError):
    pass


class CapExceeded(ValueError):
    pass


class NotASubgroup(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutations

_IDENTITIES = {}  # degree -> (0, 1, ..., degree - 1)
_new = object.__new__


def _ident(n):
    """The identity images of degree n, one shared tuple per degree."""
    t = _IDENTITIES.get(n)
    if t is None:
        t = _IDENTITIES[n] = tuple(range(n))
    return t


class Perm:
    """Permutation of {0..n-1}; right action, so (g*h)(i) = h(g(i))."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation")
        self.images = images

    @classmethod
    def _raw(cls, images):
        p = _new(cls)
        p.images = images
        return p

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        a, b = self.images, other.images
        n = len(a)
        if n != len(b):
            raise DegreeMismatch(f"{n} vs {len(b)}")
        p = _new(Perm)
        if n > 1:
            p.images = itemgetter(*a)(b)
        else:  # itemgetter() raises on no index and returns a bare int on one
            p.images = tuple(b[x] for x in a)
        return p

    def inverse(self):
        a = self.images
        inv = [0] * len(a)
        # the points come from the shared identity tuple, so an inverse
        # holds no int objects of its own
        for i, x in zip(_ident(len(a)), a):
            inv[x] = i
        return Perm._raw(tuple(inv))

    def __pow__(self, k):
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        out = Perm.identity(n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def identity(n):
        return Perm._raw(_ident(n))

    def is_identity(self):
        return self.images == _ident(len(self.images))

    def cycles(self, include_fixed=False):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            c = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                c.append(x)
                seen[x] = True
                x = self.images[x]
            if len(c) > 1 or include_fixed:
                out.append(tuple(c))
        return out

    def num_cycles(self):
        return len(self.cycles(include_fixed=True))

    def fixed_points(self):
        return [i for i, x in enumerate(self.images) if i == x]

    def order(self):
        out = 1
        for c in self.cycles():
            out = out * len(c) // gcd(out, len(c))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return format_cycles(self)


def format_cycles(perm):
    cs = perm.cycles()
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cs)


# ---------------------------------------------------------------------------
# stabilizer chains (Schreier-Sims)

_SIFT = 1 << 16  # entries of Schreier generator rows sifted at once
_EDGE, _SIFTED = 1, 2  # how a Schreier generator was verified


class _ChainLevel:
    """A level of a stabilizer chain: the strong generators first seen there
    and the transversal of the base point's orbit, as the orbit in discovery
    order, the position of every point in it (-1 off the orbit) and a uint16
    table whose row k is the inverse coset representative of orbit[k]: a
    permutation mapping it to the base point, the factor a sift composes
    with. Row 0 is the identity, at the base point."""

    __slots__ = ("base_point", "gens", "orbit", "position", "table")

    def __init__(self, base_point, n):
        self.base_point = base_point
        self.gens = []
        self.orbit = [base_point]
        self.position = np.full(n, -1, dtype=np.intp)
        self.position[base_point] = 0
        self.table = np.array([_ident(n)], dtype=np.uint16)


def _perm(row):
    """The Perm of a uint16 row, sharing the ints of the identity tuple."""
    return Perm._raw(tuple(map(_ident(len(row)).__getitem__, row.tolist())))


def _gather(table, rows, index):
    """table[rows[:, None], index] for a 2-D table, as one take from the
    flattened table: several times faster than numpy's 2-D fancy index.
    rows is an intp array (positions in an orbit or in a list of rows)."""
    offsets = (rows * table.shape[1])[:, None] + index
    return table.ravel().take(offsets)


def _first_non_identity(rows):
    """The index of the first of the uint16 rows that is not the identity,
    or -1."""
    if not rows.size:
        return -1
    moved = (rows != np.arange(rows.shape[1], dtype=np.uint16)).ravel()
    k = moved.argmax()
    return k // rows.shape[1] if moved[k] else -1


def _effective_gens(chain, i):
    """The strong generators effective at level i: those stored at levels
    >= i, all of which fix the base points of the levels below i."""
    return [g for lvl in chain[i:] for g in lvl.gens]


def _sift(chain, i, rows):
    """Sift uint16 rows through levels i.. of the chain: (per row, the level
    where its image of the base point leaves the orbit, or len(chain); the
    residues). From that level on a row is composed with row 0, the
    identity, so its residue is the one it had there."""
    stuck = np.full(len(rows), len(chain))
    for j in range(i, len(chain)):
        lvl = chain[j]
        pos = lvl.position[rows[:, lvl.base_point]]
        pos[stuck < j] = 0
        stuck[pos < 0] = j
        rows = _gather(lvl.table, np.maximum(pos, 0), rows)
    return stuck, rows


class _SchreierSims:
    """Deterministic Schreier-Sims (Seress, Permutation Group Algorithms,
    ch. 4) for the group of degree n generated by gens.

    Level i of `chain` stores the strong generators first seen there.
    Transversals only ever grow, so a Schreier generator verified once stays
    verified; the build loops until every Schreier generator of every level
    sifts to the identity. Each pass extends every level's orbit, then
    verifies the levels in order, and restarts at the first residue it
    stores. The chain is the one a build that sifts each Schreier generator
    alone, in the same order, makes.

    `gens` lists the strong generators in the order they were stored, and
    states[i][s, pt] tells how the Schreier generator of (pt, gens[s]) at
    level i was verified: not yet (0), as an edge of the orbit tree
    (`_EDGE`, never sifted) or by a sift (`_SIFTED`). A level is skipped
    while its `_signature` is the one it was last extended with (`closed`)
    or fully verified with (`clean`). forward[i] holds the coset
    representatives of level i, the inverses of its table's rows in the
    same order: scratch for the Schreier generators, dropped with the
    build.
    """

    def __init__(self, n, gens):
        self.n = n
        self.chain, self.gens, self.states, self.forward = [], [], [], []
        self.serial = {}  # id of a strong generator -> its index in gens
        self.closed, self.clean = [], []
        self._sift_each(0, np.array([g.images for g in gens],
                                    dtype=np.uint16).reshape(len(gens), n))
        dirty = True
        while dirty:
            for i in range(len(self.chain)):
                self._extend_orbit(i)
            dirty = any(self._verify_level(i) for i in range(len(self.chain)))

    def _add_generator(self, j, row):
        """Store the residue row (which fixes all base points below level j)
        at level j, unless a generator with its images is stored there
        already: several Schreier generators sifted before the level's orbit
        is extended can leave the same residue."""
        if j == len(self.chain):
            moved = row != np.arange(self.n, dtype=np.uint16)
            self.chain.append(_ChainLevel(int(moved.argmax()), self.n))
            self.forward.append(self.chain[-1].table)
            self.states.append(np.zeros((0, self.n), dtype=np.int8))
            self.closed.append(None)
            self.clean.append(None)
        g = _perm(row)
        if g not in self.chain[j].gens:
            self.chain[j].gens.append(g)
            self.serial[id(g)] = len(self.gens)
            self.gens.append(g)

    def _sift_each(self, i, rows):
        """Sift rows from level i as if one at a time: each non-identity
        residue is stored before the rows after it are sifted, against the
        grown chain. Returns the mask of the rows that sifted to the
        identity."""
        ok = np.ones(len(rows), dtype=bool)
        lo = 0
        while lo < len(rows):
            stuck, residues = _sift(self.chain, i, rows[lo:])
            f = _first_non_identity(residues)
            if f < 0:
                break
            self._add_generator(int(stuck[f]), residues[f])
            ok[lo + f] = False
            lo += f + 1
        return ok

    def _signature(self, i):
        """Level i's orbit size and number of effective generators: both
        only grow, so the level is unchanged while they are."""
        return len(self.chain[i].orbit), sum(len(l.gens) for l in self.chain[i:])

    def _level(self, i):
        """Level i's effective generators, their indices in gens and its
        states, grown to a row per strong generator."""
        eff = _effective_gens(self.chain, i)
        st = self.states[i]
        if len(st) < len(self.gens):
            st = self.states[i] = np.concatenate(
                [st, np.zeros((len(self.gens) - len(st), self.n), np.int8)])
        return eff, np.array([self.serial[id(g)] for g in eff]), st

    def _extend_orbit(self, i):
        """Grow the transversal of level i under its effective generators, in
        the order of a stack of the orbit's points; existing rows are never
        replaced, so earlier sift verifications stay valid. The row at s(pt)
        set to s^-1 * t_pt makes the Schreier generator of the edge (pt, s)
        the identity, so the edge is marked verified without a sift. The
        coset representative at s(pt) is u_pt * s."""
        if self.closed[i] == self._signature(i):
            return
        lvl = self.chain[i]
        eff, idx, st = self._level(i)
        gens = [(g, g.images, st[s]) for g, s in zip(eff, idx)]
        where = lvl.position.tolist()
        orbit, old = lvl.orbit, len(lvl.orbit)
        edges = []  # (position of pt, s) per new point s(pt), in order
        queue = list(orbit)
        while queue:
            pt = queue.pop()
            for g, images, state in gens:
                img = images[pt]
                if where[img] < 0:
                    where[img] = len(orbit)
                    orbit.append(img)
                    edges.append((where[pt], g))
                    state[pt] = _EDGE
                    queue.append(img)
        if edges:
            lvl.position[orbit[old:]] = np.arange(old, len(orbit))
            # each new row from the row of its edge's start, made before it
            table = np.empty((len(orbit), self.n), dtype=np.uint16)
            forward = np.empty_like(table)
            table[:old], forward[:old] = lvl.table, self.forward[i]
            arrays = {}  # id of a generator -> it and its inverse as rows
            for row, (k, g) in enumerate(edges, old):
                g_arr = arrays.get(id(g))
                if g_arr is None:
                    g_arr = arrays[id(g)] = np.array(
                        [g.images, g.inverse().images], dtype=np.uint16)
                table[row] = table[k][g_arr[1]]
                forward[row] = g_arr[0][forward[k]]
            lvl.table, self.forward[i] = table, forward
        self.closed[i] = self._signature(i)

    def _verify_level(self, i):
        """Sift the unverified Schreier generators of level i in order, point
        by point and generator by generator, `_SIFT` entries at a time. At
        the first that leaves a residue, the ones before it are verified,
        the residue is stored, and the point's remaining generators are
        sifted as `_sift_each` does. Returns whether a residue was stored."""
        if self.clean[i] == self._signature(i):
            return False
        lvl = self.chain[i]
        eff, idx, st = self._level(i)
        orbit = np.array(lvl.orbit)
        pos, k = np.nonzero(st[idx[:, None], orbit].T == 0)
        gens = np.array([g.images for g in eff], dtype=np.uint16)

        def verified(p, kk):
            st[idx[kk], orbit[p]] = _SIFTED

        def schreier_rows(p, kk):
            """The Schreier generators u * s * t of the pairs (orbit[p],
            gens[kk]): u the coset representative of the point and t the
            inverse one of its image under s."""
            t = lvl.position[gens[kk, orbit[p]]]
            return _gather(lvl.table, t, _gather(gens, kk, self.forward[i][p]))

        step = max(1, _SIFT // self.n)
        for lo in range(0, len(pos), step):
            p, kk = pos[lo:lo + step], k[lo:lo + step]
            stuck, residues = _sift(self.chain, i + 1, schreier_rows(p, kk))
            f = _first_non_identity(residues)
            if f < 0:
                verified(p, kk)
                continue
            verified(p[:f], kk[:f])
            self._add_generator(int(stuck[f]), residues[f])
            rest = slice(lo + f + 1, bisect_right(pos, p[f]))
            p, kk = pos[rest], k[rest]
            ok = self._sift_each(i + 1, schreier_rows(p, kk))
            verified(p[ok], kk[ok])
            return True
        self.clean[i] = self._signature(i)
        return False


class PermGroup:
    """Group given by generators; order and membership via a stabilizer chain."""

    def __init__(self, degree, gens):
        if degree > DEGREE_CAP:
            raise CapExceeded(f"degree {degree} exceeds cap {DEGREE_CAP}")
        gens = [g if isinstance(g, Perm) else Perm(g) for g in gens]
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch("generator degree mismatch")
        self.degree = degree
        self.gens = [g for g in dict.fromkeys(gens) if not g.is_identity()]
        self._chain = None
        self._order = None
        self._elements = None

    # -- stabilizer chain ---------------------------------------------------

    def _build_chain(self):
        if self._chain is not None:
            return
        self._chain = _SchreierSims(self.degree, self.gens).chain
        order = 1
        for lvl in self._chain:
            order *= len(lvl.orbit)
        self._order = order

    def _inverse_rep(self, i, pt):
        """The inverse coset representative at pt of level i, as a Perm."""
        lvl = self._chain[i]
        return _perm(lvl.table[lvl.position[pt]])

    @property
    def order(self):
        self._build_chain()
        return self._order

    def contains(self, g):
        if g.degree != self.degree:
            raise DegreeMismatch("degree mismatch")
        self._build_chain()
        _, residue = _sift(self._chain, 0,
                           np.fromiter(g.images, np.uint16, self.degree)[None])
        return _first_non_identity(residue) < 0

    def __contains__(self, g):
        return self.contains(g)

    # -- enumeration ---------------------------------------------------------

    def elements(self):
        """All elements by BFS closure from the identity under right
        multiplication by the generators, in discovery order (frontier by
        frontier, then generator by generator); cached. Raises CapExceeded
        when |G| > ENUM_CAP."""
        if self._elements is not None:
            return self._elements
        self._elements = _perms(list(_element_blocks(self)), self.degree,
                                [Perm.identity(self.degree)])
        return self._elements

    # -- orbits ---------------------------------------------------------------

    def orbit(self, point):
        seen = {point}
        queue = [point]
        while queue:
            pt = queue.pop()
            for g in self.gens:
                img = g.images[pt]
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        return seen

    def orbits(self):
        out, seen = [], set()
        for p in range(self.degree):
            if p not in seen:
                o = self.orbit(p)
                seen |= o
                out.append(sorted(o))
        return out

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def stabilizer_gens(self, point):
        """Generators of the stabilizer of `point` in a transitive group.

        The strong generators of levels >= 1 generate the stabilizer of the
        first base point bp; the stored inverse representative t at `point`
        maps it to bp, so their conjugates t * s * t^-1 fix `point`."""
        self._build_chain()
        # the trivial group is transitive on one point only
        orbit = self._chain[0].orbit if self._chain else [0]
        if len(orbit) != self.degree:
            raise ValueError("G must be transitive")
        if not self._chain:
            return []
        t = self._inverse_rep(0, point)
        t_inv = t.inverse()
        return [t * s * t_inv for s in _effective_gens(self._chain, 1)]

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.gens)})"


# ---------------------------------------------------------------------------
# orbits on pairs

class PairOrbits:
    """Orbit partition of {0..n-1}^2 under a generator list."""

    def __init__(self, n, labels):
        self.n = n
        self.labels = labels  # numpy array of size n*n; value = min pair index in orbit

    def orbit_count(self):
        return len(np.unique(self.labels))


def check_enum_cap(G):
    """Raise CapExceeded when |G| exceeds ENUM_CAP, the bound on every
    enumeration of G's elements."""
    if G.order > ENUM_CAP:
        raise CapExceeded(f"|G| = {G.order} exceeds cap {ENUM_CAP}")


def check_pair_cap(n):
    """Raise CapExceeded when the n*n ordered pairs exceed PAIR_CAP."""
    if n * n > PAIR_CAP:
        raise CapExceeded(f"{n * n} pairs exceed cap {PAIR_CAP}")


def orbits_on_pairs(gens, n):
    """BFS/min-label orbit partition of {0..n-1}^2 using the generators only."""
    check_pair_cap(n)
    dtype = np.int32 if n * n < 2 ** 31 else np.int64
    maps = []
    for g in gens:
        arr = np.array(g.images, dtype=dtype)
        maps.append((arr[:, None] * np.asarray(n, dtype) + arr[None, :]).ravel())
        inv = np.array(g.inverse().images, dtype=dtype)
        maps.append((inv[:, None] * np.asarray(n, dtype) + inv[None, :]).ravel())
    return PairOrbits(n, _least_labels(np.arange(n * n, dtype=dtype), maps))


def _least_labels(labels, maps):
    """The least index in each entry's orbit under the group that the index
    permutations `maps` generate, from labels = the indices: each entry
    takes the least label among its own, its images' and its label's until
    no label changes."""
    old = None
    while old is None or not np.array_equal(labels, old):
        old = labels
        for m in maps:
            labels = np.minimum(labels, labels[m])
        labels = labels[labels]
    return labels


# ---------------------------------------------------------------------------
# classes, centralizers, normalizers

_SLICE = 1 << 12  # products ranked at once
_CHUNK = 1 << 13  # entries of new rows built at once


def _rank(chain, base_images):
    """The rank in [0, |G|) of each element of G given by its row of base
    images: the mixed-radix position of its coset representatives, found by
    sifting the base images alone through the transversals of G's chain."""
    rank = np.zeros(len(base_images), dtype=np.int64)
    rest = base_images
    for lvl in chain:
        pos = lvl.position[rest[:, 0]]
        rank = rank * len(lvl.orbit) + pos
        rest = _gather(lvl.table, pos, rest[:, 1:])
    return rank


def _element_blocks(G):
    """The elements of G other than the identity as uint16 row blocks, in
    the order of G.elements(): breadth first from the identity, frontier by
    frontier, each element's right multiples by the generators in order.
    Raises CapExceeded, at the first block, when |G| > ENUM_CAP.

    A product is new when its rank in G's chain, computed from its base
    images alone, is unseen; full rows (uint16: every degree is below
    DEGREE_CAP) are made only for new elements, a chunk at a time, so every
    temporary is bounded by _SLICE and _CHUNK."""
    check_enum_cap(G)
    if not G.gens:
        return
    n = G.degree
    base = [lvl.base_point for lvl in G._chain]
    post = np.array([g.images for g in G.gens], dtype=np.uint16)
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True  # the identity: position 0 at every level
    moves = np.arange(len(post))[:, None]
    step, chunk = max(1, _SLICE // len(post)), max(1, _CHUNK // n)
    frontier = [np.array([_ident(n)], dtype=np.uint16)]
    while frontier:
        layer = []
        for piece in frontier:
            for lo in range(0, len(piece), step):
                rows = piece[lo:lo + step]
                # base images of every product, ordered (row, move)
                images = post[moves, rows[:, None, base]].reshape(-1, len(base))
                uniq, first = np.unique(_rank(G._chain, images),
                                        return_index=True)
                fresh = ~seen[uniq]
                if not fresh.any():
                    continue
                seen[uniq[fresh]] = True
                r, j = np.divmod(np.sort(first[fresh]), len(post))
                for c in range(0, len(r), chunk):
                    layer.append(_gather(post, j[c:c + chunk],
                                         rows[r[c:c + chunk]]))
                    yield layer[-1]
        frontier = layer


def _perms(blocks, n, out):
    """out, extended by the Perms of a list of uint16 row blocks of degree n,
    in order. The tuples share the int objects of the degree's identity
    tuple; each block is dropped from the list once used. Making the tuples
    after a search keeps them from interleaving in the heap with the search's
    temporaries."""
    points = np.array(_ident(n), dtype=object)
    blocks.reverse()
    while blocks:
        out.extend(map(Perm._raw, map(tuple, points[blocks.pop()].tolist())))
    return out


def _forward(lvl):
    """The forward coset representatives of a chain level: the inverses of
    its table's rows, in the same order, made by one scatter."""
    forward = np.empty_like(lvl.table)
    forward[np.arange(len(lvl.orbit))[:, None], lvl.table] = _ident(
        lvl.table.shape[1])
    return forward


def _rank_space(G):
    """(images, conjugates, rank) on the ranks [0, |G|) of G's elements. The
    element of rank r is u_0 o ... o u_k, u_i the forward coset
    representative (`_forward`) at r's mixed-radix digit of level i.
    images(ranks, points): the images of points (a row, or a row per rank)
    under each rank's element.
    conjugates(ranks): per generator s, the ranks of s^-1 g s, from its base
    images s(g(s^-1(b))) alone. rank(rows, pre): the ranks of pre * c for the
    uint16 rows c (pre, a Perm of G, defaults to the identity). Raises
    CapExceeded when |G| > ENUM_CAP."""
    check_enum_cap(G)
    chain = G._chain
    base = [lvl.base_point for lvl in chain]
    forward = [_forward(lvl) for lvl in chain]
    gens = [(np.array(s.images), np.array(s.inverse().images)[base])
            for s in G.gens]

    def images(ranks, points):
        x = np.broadcast_to(points, (len(ranks), np.shape(points)[-1]))
        for lvl, table in zip(chain[::-1], forward[::-1]):
            ranks, digit = np.divmod(ranks, len(lvl.orbit))
            x = _gather(table, digit, x)
        return x

    def conjugates(ranks):
        return [_rank(chain, s[images(ranks, pre)]) for s, pre in gens]

    def rank(rows, pre=None):
        return _rank(chain, rows[:, base if pre is None else
                                 [pre.images[b] for b in base]])

    return images, conjugates, rank


def _class_labels(G, conjugates):
    """(labels, first, sizes): the class of each rank, and each class's
    least rank and size, the classes numbered by least rank (the identity's,
    rank 0, is 0). The classes are the components of the graph on the ranks
    whose edges are the conjugations by the generators (`conjugates` of
    `_rank_space(G)`)."""
    ranks = np.arange(G.order)
    moves = [np.concatenate(m) for m in zip(*(
        conjugates(ranks[lo:lo + _SLICE]) for lo in range(0, G.order, _SLICE)))]
    first, labels, sizes = np.unique(_least_labels(ranks, moves),
                                     return_inverse=True, return_counts=True)
    return labels, first, sizes


def conjugacy_classes(G):
    """All conjugacy classes as lists of Perm, in the order of their least
    ranks in G's chain (the identity's first), each in rank order. Each Perm
    is made once, from its rank. Raises CapExceeded when |G| > ENUM_CAP."""
    images, conjugates, _ = _rank_space(G)
    labels, _, sizes = _class_labels(G, conjugates)
    ranks = np.argsort(labels, kind="stable")
    points, step = np.arange(G.degree), max(1, _CHUNK // max(1, G.degree))
    out = []
    for lo in range(0, len(ranks), step):
        _perms([images(ranks[lo:lo + step], points)], G.degree, out)
    ends = np.cumsum(sizes).tolist()
    return [out[e - size:e] for size, e in zip(sizes.tolist(), ends)]


def normalizer_of_cyclic(G, g):
    """N_G(<g>), with all its elements as generators, by a backtrack search
    over G's chain (Seress, Permutation Group Algorithms, ch. 9).

    h normalizes <g> exactly when h^-1 g h = g^k for a unit k mod ord(g),
    that is, when h(g(x)) = g^k(h(x)) at every point x. The search chooses
    the image beta_i = h(b_i) of each base point in turn. A partial product
    P of inverse coset representatives, a uint16 row, maps the images chosen
    so far onto their base points, so beta_i is possible only when
    P(beta_i) lies in the orbit of level i. When b_i = g^j(b_l) for an
    earlier base point, beta_i = g^(kj)(beta_l) is forced; otherwise beta_i
    is any point on a g-cycle as long as b_i's (g^k has the cycle lengths of
    g), so k is chosen only at the first forced level or at the last. At a
    leaf P = h^-1. It is tested on the base first, which decides the
    equation as both sides lie in G, and then on every point.

    Rows are extended a chunk at a time, so no temporary of the search grows
    with |G|. g must lie in G (else NotASubgroup) and |G| must be at most
    ENUM_CAP (else CapExceeded).
    """
    if not G.contains(g):
        raise NotASubgroup("g is not in G")
    check_enum_cap(G)
    n = G.degree
    base = [lvl.base_point for lvl in G._chain]
    if not base:  # G is trivial
        return PermGroup(n, [Perm.identity(n)])
    order = g.order()
    powers = np.array([(g ** k).images for k in range(order)], dtype=np.uint16)
    lengths = np.zeros(n, dtype=np.intp)
    # point -> (the number of its g-cycle, its place j: it is g^j(cycle[0]))
    where = {}
    for c, cycle in enumerate(g.cycles(include_fixed=True)):
        lengths[list(cycle)] = len(cycle)
        where.update((x, (c, j)) for j, x in enumerate(cycle))
    # per level: base point, forced (l, j) or None, orbit, position, table
    levels = []
    for i, lvl in enumerate(G._chain):
        b = lvl.base_point
        c, j = where[b]
        forced = next(((l, (j - where[a][1]) % lengths[b])
                       for l, a in enumerate(base[:i]) if where[a][0] == c),
                      None)
        levels.append((b, forced, np.array(lvl.orbit), lvl.position, lvl.table))
    units = np.array([k for k in range(order) if gcd(k, order) == 1])
    rows = max(1, _CHUNK // n)
    ident = np.array(_ident(n), dtype=np.uint16)
    g_images = np.array(g.images, dtype=np.uint16)
    base_points = np.array(base)
    found = []  # row blocks of N's elements

    def search(i, k, P):
        """Extend the nodes with partial products P at level i, depth first.
        k holds their powers, or is None above the first level that depends
        on k (a forced level, or the last); there each node is split into
        one node per unit."""
        b, forced, orbit, position, table = levels[i]
        last = i + 1 == len(levels)
        if k is None and (forced or last):
            r, u = np.divmod(np.arange(len(P) * len(units)), len(units))
            for lo in range(0, len(r), rows):
                search(i, units[u[lo:lo + rows]], P[r[lo:lo + rows]])
            return
        if forced:
            l, j = forced
            r = np.arange(len(P))
            # P maps beta_l onto b_l
            delta = P[r, powers[k * j % order, np.argmax(P == base[l], axis=1)]]
            pos = position[delta]
            keep = pos >= 0  # delta is in the orbit
        else:
            # every delta in the orbit, for beta = P^-1(delta) on a g-cycle
            # as long as b's
            inverse = np.empty_like(P)
            inverse[np.arange(len(P))[:, None], P] = ident
            r, pos = np.divmod(np.arange(len(P) * len(orbit)), len(orbit))
            keep = lengths[inverse[r, orbit[pos]]] == lengths[b]
        r, pos = r[keep], pos[keep]
        if last:
            # the leaves Q = table[pos] o P[r] are the h^-1, and h(g(x)) =
            # g^k(h(x)) for all x exactly when g(Q(y)) = Q(g^k(y)) for all y.
            # Both sides lie in G, so a test on the base rejects early; the
            # rest are checked on every point below
            t, rb = pos[:, None], r[:, None]
            keep = (g_images[table[t, P[rb, base_points]]]
                    == table[t, P[rb, powers[k[rb], base_points]]]).all(axis=1)
            r, pos = r[keep], pos[keep]
        for lo in range(0, len(r), rows):
            rc = r[lo:lo + rows]
            Q = _gather(table, pos[lo:lo + rows], P[rc])
            if not last:
                search(i + 1, None if k is None else k[rc], Q)
                continue
            # N is closed under inverses, so it is the set of the Q that pass
            hold = g_images[Q] == Q[np.arange(len(Q))[:, None], powers[k[rc]]]
            found.append(Q[hold.all(axis=1)])

    search(0, None, ident[None])
    return PermGroup(n, _perms(found, n, []))


# ---------------------------------------------------------------------------
# coset actions

def right_coset_key(M):
    """A function r -> canonical key of the right coset M*r.

    The key is the images of the one element of M*r whose images of M's base
    points are lexicographically least. It is found by descending M's chain:
    at each level, move the orbit point whose image under r is least onto
    the base point, by r -> u*r with u the forward coset representative
    (base point -> orbit point). One orbit scan and at most one composition
    per level; M is never enumerated.
    """
    M._build_chain()
    # per level: the orbit, the base point, each point's position in the
    # orbit, the forward representatives as rows, and the Perms made from
    # them so far, by orbit point
    levels = [(lvl.orbit, lvl.base_point, lvl.position, _forward(lvl), {})
              for lvl in M._chain]

    def key(r):
        for orbit, base_point, position, forward, made in levels:
            o = min(orbit, key=r.images.__getitem__)
            if o != base_point:
                u = made.get(o)
                if u is None:
                    u = made[o] = _perm(forward[position[o]])
                r = u * r
        return r.images

    return key


class CosetAction:
    """Action of A on the right cosets of M, found breadth first from M
    itself under right multiplication by A's generators. A coset is labelled
    by `right_coset_key(M)`, so reps[i] is the first element of A reached in
    coset i. Provides the induced permutation for any element of A."""

    def __init__(self, A, M):
        for g in M.gens:
            if g not in A:
                raise NotASubgroup("M is not contained in A")
        if A.order // M.order > DEGREE_CAP:
            raise CapExceeded(f"index {A.order // M.order} exceeds cap {DEGREE_CAP}")
        self.A = A
        self.M = M
        self._key = key = right_coset_key(M)
        ident = Perm.identity(A.degree)
        reps = [ident]
        self._canon_to_idx = index_of = {key(ident): 0}
        rows = [[] for _ in A.gens]  # rows[k][i]: the coset of reps[i] * gens[k]
        i = 0
        while i < len(reps):
            r = reps[i]
            for g, row in zip(A.gens, rows):
                w = r * g
                c = key(w)
                j = index_of.get(c)
                if j is None:
                    j = index_of[c] = len(reps)
                    reps.append(w)
                row.append(j)
            i += 1
        self.reps = reps
        self.index = len(reps)
        if self.index != A.order // M.order:
            raise NotASubgroup("coset count does not match the index")
        self.group = PermGroup(self.index, [Perm._raw(tuple(row)) for row in rows])

    def image(self, g):
        """The permutation induced by g in A on the cosets."""
        key, index_of = self._key, self._canon_to_idx
        return Perm._raw(tuple(index_of[key(r * g)] for r in self.reps))

    def image_group(self, H):
        """The image of a subgroup H of A, acting on the cosets."""
        return PermGroup(self.index, [self.image(h) for h in H.gens])


# ---------------------------------------------------------------------------
# small finite fields for the named constructors

_GF_MODULI = {
    (2, 2): (1, 1, 1),          # x^2+x+1
    (2, 3): (1, 1, 0, 1),       # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),    # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1), # x^5+x^2+1
    (3, 2): (1, 0, 1),          # x^2+1
    (3, 3): (1, 2, 0, 1),       # x^3+2x+1
    (5, 2): (2, 1, 1),          # x^2+x+2
}


class SmallGF:
    """GF(p^k), elements as tuples of k coefficients (low degree first)."""

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            self.modulus = None
        else:
            if (p, k) not in _GF_MODULI:
                raise ValueError(f"no modulus stored for GF({p}^{k})")
            self.modulus = _GF_MODULI[(p, k)]
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def elements(self):
        """The q elements, the coefficients of n = 0, 1, ... in base p."""
        return [v[::-1] for v in product(range(self.p), repeat=self.k)]

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def mul(self, x, y):
        p, k = self.p, self.k
        if k == 1:
            return ((x[0] * y[0]) % p,)
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % p
        # reduce by modulus (monic of degree k)
        mod = self.modulus
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(k):
                    prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
        return tuple(prod[:k])

    def power(self, x, n):
        out = self.one
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError
        return self.power(x, self.q - 2)

    def frobenius(self, x):
        return self.power(x, self.p)

    def multiplicative_generator(self):
        for x in self.elements()[1:]:  # all but zero
            if all(self.power(x, (self.q - 1) // d) != self.one
                   for d in prime_divisors(self.q - 1)):
                return x
        raise RuntimeError("no generator found")


def prime_divisors(n):
    """The distinct prime divisors of n > 0, ascending."""
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


# ---------------------------------------------------------------------------
# named constructors: projective groups on P^1(F_q)

class ProjectiveLine:
    """P^1(F_q) with a fixed point order: field elements in enumeration
    order, then infinity (index q)."""

    def __init__(self, p, k):
        self.gf = SmallGF(p, k)
        self.points = self.gf.elements()
        self.index = {x: i for i, x in enumerate(self.points)}
        self.inf = self.gf.q

    @property
    def degree(self):
        return self.gf.q + 1

    def moebius_perm(self, a, b, c, d):
        """z -> (az+b)/(cz+d) as a permutation, for an invertible matrix."""
        gf = self.gf
        det = gf.add(gf.mul(a, d), gf.neg(gf.mul(b, c)))
        if det == gf.zero:
            raise ValueError("singular matrix")

        def point(num, den):  # num/den on the line, infinity when den = 0
            if den == gf.zero:
                return self.inf
            return self.index[gf.mul(num, gf.inv(den))]

        # z, then infinity, whose image is a/c
        return Perm([point(gf.add(gf.mul(a, z), b), gf.add(gf.mul(c, z), d))
                     for z in self.points] + [point(a, c)])

    def frobenius_perm(self):
        images = [self.index[self.gf.frobenius(z)] for z in self.points]
        images.append(self.inf)
        return Perm(images)


def _psl2_gens(line):
    gf = line.gf
    gens = []
    # translations by a basis of F_q over F_p
    basis = [tuple(1 if i == j else 0 for i in range(gf.k)) for j in range(gf.k)]
    for e in basis:
        gens.append(line.moebius_perm(gf.one, e, gf.zero, gf.one))
    # scaling by a square generator: z -> g^2 z (all scalings for even q)
    g = gf.multiplicative_generator()
    sq = gf.mul(g, g) if gf.p != 2 else g
    gens.append(line.moebius_perm(sq, gf.zero, gf.zero, gf.one))
    # inversion z -> -1/z
    gens.append(line.moebius_perm(gf.zero, gf.neg(gf.one), gf.one, gf.zero))
    return gens


def _projective_group(q, ambient):
    """(A, G, line): an almost simple group A on P^1(F_q) and G = PSL2(q),
    given by its generators inside A. The ambient is 'psl' (A is G, so the
    two share one chain and one enumeration), 'pgammal' (PGammaL2(q): PGL2(q)
    extended by the Frobenius) or 'm10' (M10 = PSL2(9).<delta*frob>, q = 9
    only); delta is the scaling by a multiplicative generator."""
    if ambient not in ("psl", "pgammal", "m10") or (ambient == "m10" and q != 9):
        raise ValueError(f"no ambient {ambient!r} of PSL2({q})")
    p, k = _factor_prime_power(q)
    line = ProjectiveLine(p, k)
    A = G = PermGroup(line.degree, _psl2_gens(line))
    d, index = gcd(2, q - 1), 1  # index: [A : G]
    if ambient != "psl":
        gf = line.gf
        delta = line.moebius_perm(gf.multiplicative_generator(), gf.zero,
                                  gf.zero, gf.one)
        frob = line.frobenius_perm()
        if ambient == "m10":
            extra, index = [delta * frob], 2
        else:  # PGL2(q) has index d over PSL2(q), and the Frobenius k
            extra, index = ([delta, frob] if d == 2 else [frob]), d * k
        A = PermGroup(line.degree, G.gens + extra)
    expected = q * (q * q - 1) // d * index
    if A.order != expected:
        raise RuntimeError(f"{ambient} of PSL2({q}) has order {A.order}, "
                           f"expected {expected}")
    return A, G, line


def psl2(q):
    """PSL_2(q) in its natural action on P^1(F_q), degree q+1: (G, line)."""
    return _projective_group(q, "psl")[1:]


def _factor_prime_power(q):
    for p in (2, 3, 5, 7, 11, 13):
        k = 0
        while q % p ** (k + 1) == 0:
            k += 1
        if k and p ** k == q:
            return p, k
    raise ValueError(f"{q} is not a supported prime power")


def element_of_order(G, n):
    """The first element of order n in the order of G.elements(), found
    block by block as the closure discovers them: the closure stops at the
    block that holds it, and G's element cache is left as it is. Raises
    CapExceeded when |G| > ENUM_CAP."""
    check_enum_cap(G)
    if n == 1:
        return Perm.identity(G.degree)
    for block in _element_blocks(G):
        for h in _perms([block], G.degree, []):
            if h.order() == n:
                return h
    raise ValueError(f"no element of order {n}")


def psl2_torus_coset_action(q, ambient="psl"):
    """The degree q(q-1)/2 action of PSL2(q) (or an overgroup) on cosets of the
    normalizer of the nonsplit torus of order (q+1)/gcd(2,q-1).

    ambient: 'psl', 'pgammal', or 'm10' (q=9 only).
    Returns (coset_action, G_in_ambient) where G_in_ambient is PSL2(q) given
    by its generators inside the ambient group.
    """
    A, G, _ = _projective_group(q, ambient)
    torus_order = (q + 1) // gcd(2, q - 1)
    t = element_of_order(G, torus_order)
    M = normalizer_of_cyclic(A, t)
    return CosetAction(A, M), G


def psl2_sylow2_coset_action(q, ambient="psl"):
    """The degree q(q+1)/2 action of PSL2(q) (or an overgroup) on the 2-sets
    of P^1(F_q), as the cosets of M, the setwise stabilizer of {0, INF}.

    PSL2(q) is 2-transitive, so the index is q(q+1)/2 in every ambient. M is
    generated by the ambient's generators that fix {0, INF}: all but the
    translations. For q = 9, M is a Sylow 2-subgroup of the ambient.
    ambient: 'psl', 'pgammal', or 'm10' (q=9 only). Returns (coset_action,
    G_in_ambient) as psl2_torus_coset_action does.
    """
    A, G, _ = _projective_group(q, ambient)
    pair = {0, q}  # the points 0 and INF of ProjectiveLine
    M = PermGroup(A.degree, [h for h in A.gens
                             if {h.images[0], h.images[q]} == pair])
    return CosetAction(A, M), G


# ---------------------------------------------------------------------------
# affine constructions on F_p^e

class AffineSpace:
    """F_p^e with vectors enumerated as mixed-radix tuples."""

    def __init__(self, p, e):
        self.p = p
        self.e = e
        self.n = p ** e
        # the coefficients of idx = 0, 1, ... in base p
        self.vectors = [v[::-1] for v in product(range(p), repeat=e)]
        self.index = {v: i for i, v in enumerate(self.vectors)}

    def translation(self, v):
        return Perm([self.index[tuple((a + b) % self.p for a, b in zip(w, v))]
                     for w in self.vectors])

    def linear(self, matrix):
        """Row-vector convention: w -> w * M (M given as list of rows)."""
        images = []
        for w in self.vectors:
            out = [0] * self.e
            for i, wi in enumerate(w):
                if wi:
                    for j in range(self.e):
                        out[j] = (out[j] + wi * matrix[i][j]) % self.p
            images.append(self.index[tuple(out)])
        return Perm(images)

    def map_perm(self, fn):
        """Permutation from an arbitrary bijection on vectors."""
        return Perm([self.index[fn(w)] for w in self.vectors])

