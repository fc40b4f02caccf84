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
from struct import pack

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
    order, the position of every point in it (-1 off the orbit) and two
    uint16 tables, replaced as the orbit grows, never written in place. Row
    k of `table` is the inverse coset representative of orbit[k]: a
    permutation mapping it to the base point, the factor a sift composes
    with. Row k of `forward` is its inverse, the coset representative. Row 0
    of both is the identity, at the base point."""

    __slots__ = ("base_point", "gens", "orbit", "position", "table", "forward")

    def __init__(self, base_point, n):
        self.base_point = base_point
        self.gens = []
        self.orbit = [base_point]
        self.position = np.full(n, -1, dtype=np.intp)
        self.position[base_point] = 0
        self.table = self.forward = np.array([_ident(n)], dtype=np.uint16)


def _perm(row):
    """The Perm of a uint16 row, sharing the ints of the identity tuple."""
    return Perm._raw(tuple(map(_ident(len(row)).__getitem__, row.tolist())))


def _perm_rows(perms, n):
    """The uint16 rows of a list of Perms of degree n, one row per Perm, as
    a read-only array. Packing the images with struct is about twice as fast
    as np.fromiter from a few hundred points on."""
    if any(len(p.images) != n for p in perms):
        raise DegreeMismatch("degree mismatch")
    fmt = f"={n}H"
    return np.frombuffer(b"".join([pack(fmt, *p.images) for p in perms]),
                         np.uint16).reshape(len(perms), n)


def _gather(table, rows, index):
    """table[rows[:, None], index] for a 2-D table, as one take from the
    flattened table: several times faster than numpy's 2-D fancy index.
    rows is an intp array (positions in an orbit or in a list of rows)."""
    offsets = (rows * table.shape[1])[:, None] + index
    return table.ravel().take(offsets)


def _effective_gens(chain, i):
    """The strong generators effective at level i: those stored at levels
    >= i, all of which fix the base points of the levels below i."""
    return [g for lvl in chain[i:] for g in lvl.gens]


def _sift(chain, i, rows):
    """Sift uint16 rows through levels i.. of the chain: (the index of the
    first row that does not sift to the identity, or -1; the level where its
    image of the base point leaves the orbit, or len(chain); its residue,
    the row composed with the inverse coset representatives down to that
    level).

    A row's positions p_i, .., p_m, the ones a sift reads, follow from its
    images of the base points alone, and it sifts to the identity exactly
    when it equals F_m[p_m] * .. * F_i[p_i], the product of the forward
    coset representatives at them. So the rows are compared with that
    product, built from the deepest factor, a row copy, with one gather
    fewer than a sift composes. A row whose image of b_j leaves level j's
    orbit gets position -1 there, read as the level's last row, and
    positions below it that mean nothing; it still differs from the
    product, since any product of rows of levels j.. maps b_j into the
    orbit and the row, sifted down to level j, does not."""
    levels = chain[i:]
    images = rows.take([lvl.base_point for lvl in levels], axis=1)
    positions = []
    for j, lvl in enumerate(levels):
        positions.append(lvl.position[images[:, j]])
        if j + 1 < len(levels):
            images[:, j + 1:] = lvl.table[positions[-1][:, None],
                                          images[:, j + 1:]]
    product = np.arange(rows.shape[1], dtype=np.uint16)
    for j in reversed(range(len(levels))):
        product = (levels[j].forward.take(positions[j], axis=0)
                   if j == len(levels) - 1
                   else _gather(levels[j].forward, positions[j], product))
    differ = (rows != product).ravel()
    if not differ.any():
        return -1, None, None
    f = differ.argmax() // rows.shape[1]
    residue = rows[f]
    for j, (lvl, pos) in enumerate(zip(levels, positions)):
        if pos[f] < 0:
            return f, i + j, residue
        residue = lvl.table[pos[f]].take(residue)
    return f, len(chain), residue


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
    (`_EDGE`, never sifted) or by a sift (`_SIFTED`). known[i] is the number
    of strong generators stored when level i's orbit was last extended, and
    a level is no longer verified while its `_signature` is the one it was
    fully verified with (`clean`).
    """

    def __init__(self, n, gens):
        self.n = n
        self.chain, self.gens, self.states = [], [], []
        self.serial = {}  # id of a strong generator -> its index in gens
        self.known, self.clean = [], []
        self._sift_each(0, _perm_rows(gens, n))
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
            self.states.append(np.zeros((0, self.n), dtype=np.int8))
            self.known.append(0)
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
            f, level, residue = _sift(self.chain, i, rows[lo:])
            if f < 0:
                break
            self._add_generator(level, residue)
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
        replaced, so earlier sift verifications stay valid. The orbit is
        closed under the generators stored before `known[i]`, so its old
        points meet only the ones stored since, in their order; each new
        point meets them all. The row at s(pt) set to s^-1 * t_pt makes the
        Schreier generator of the edge (pt, s) the identity, so the edge is
        marked verified without a sift. The coset representative at s(pt) is
        u_pt * s."""
        known = self.known[i]
        # a level's last strong generator is its latest
        if max(self.serial[id(l.gens[-1])] for l in self.chain[i:]) < known:
            return
        self.known[i] = len(self.gens)
        eff, idx, st = self._level(i)
        gens = [(g, g.images, st[s]) for g, s in zip(eff, idx)]
        fresh = [gen for gen, s in zip(gens, idx) if s >= known]
        lvl = self.chain[i]
        where = lvl.position.tolist()
        orbit, old = lvl.orbit, len(lvl.orbit)
        edges = []  # (position of pt, s) per new point s(pt), in order
        queue = list(orbit)
        while queue:
            pt = queue.pop()
            for g, images, state in fresh if where[pt] < old else gens:
                img = images[pt]
                if where[img] < 0:
                    where[img] = len(orbit)
                    orbit.append(img)
                    edges.append((where[pt], g))
                    state[pt] = _EDGE
                    queue.append(img)
        if not edges:
            return
        lvl.position[orbit[old:]] = np.arange(old, len(orbit))
        # each new row from the row of its edge's start, made before it
        table = np.empty((len(orbit), self.n), dtype=np.uint16)
        forward = np.empty_like(table)
        table[:old], forward[:old] = lvl.table, lvl.forward
        arrays = {}  # id of a generator -> its images and their inverse
        for row, (k, g) in enumerate(edges, old):
            g_arr = arrays.get(id(g))
            if g_arr is None:
                images = np.array(g.images, dtype=np.intp)
                inverse = np.empty_like(images)
                inverse[images] = np.arange(self.n)
                g_arr = arrays[id(g)] = images, inverse
            table[k].take(g_arr[1], out=table[row])
            g_arr[0].take(forward[k], out=forward[row])
        lvl.table, lvl.forward = table, forward

    def _verify_level(self, i):
        """Sift the unverified Schreier generators of level i in order, point
        by point and generator by generator, `_SIFT` entries at a time. At
        the first that leaves a residue, the ones before it are verified,
        the residue is stored, and the point's remaining generators are
        sifted as `_sift_each` does. Returns whether a residue was stored.

        The Schreier generator u * s * t of the pair (orbit[p], s), with u
        the coset representative of the point and t the inverse one of its
        image, sifts from level i + 1 to the identity exactly when u * s
        sifts from level i to it, leaving the same residue: the sift's first
        step composes u * s with t. So u * s is what is sifted."""
        if self.clean[i] == self._signature(i):
            return False
        lvl = self.chain[i]
        eff, idx, st = self._level(i)
        orbit = np.array(lvl.orbit)
        pos, k = np.nonzero(st[idx[:, None], orbit].T == 0)
        gens = _perm_rows(eff, self.n)

        def verified(p, kk):
            st[idx[kk], orbit[p]] = _SIFTED

        def rows(p, kk):
            return _gather(gens, kk, lvl.forward[p])

        step = max(1, _SIFT // self.n)
        for lo in range(0, len(pos), step):
            p, kk = pos[lo:lo + step], k[lo:lo + step]
            f, level, residue = _sift(self.chain, i, rows(p, kk))
            if f < 0:
                verified(p, kk)
                continue
            verified(p[:f], kk[:f])
            self._add_generator(level, residue)
            rest = slice(lo + f + 1, bisect_right(pos, p[f]))
            p, kk = pos[rest], k[rest]
            ok = self._sift_each(i, rows(p, kk))
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

    @property
    def order(self):
        self._build_chain()
        return self._order

    def first_outside(self, rows):
        """The index of the first of the uint16 rows that is not in the
        group, or -1. The rows are sifted `_SIFT` entries at a time."""
        if rows.shape[1] != self.degree:
            raise DegreeMismatch("degree mismatch")
        self._build_chain()
        step = max(1, _SIFT // max(1, self.degree))
        for lo in range(0, len(rows), step):
            f, _, _ = _sift(self._chain, 0, rows[lo:lo + step])
            if f >= 0:
                return lo + f
        return -1

    def contains(self, g):
        return self.first_outside(_perm_rows([g], self.degree)) < 0

    def __contains__(self, g):
        return self.contains(g)

    # -- enumeration ---------------------------------------------------------

    def elements(self):
        """All elements in rank order (`_rank_space`), the identity first;
        cached. Raises CapExceeded when |G| > ENUM_CAP."""
        if self._elements is None:
            images, _, _ = _rank_space(self)
            self._elements = _perms(
                _rank_rows(images, np.arange(self.order), self.degree),
                self.degree, [])
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
        maps it to bp, and t^-1 is the stored forward one, so the conjugates
        t * s * t^-1 fix `point`."""
        self._build_chain()
        # the trivial group is transitive on one point only
        orbit = self._chain[0].orbit if self._chain else [0]
        if len(orbit) != self.degree:
            raise ValueError("G must be transitive")
        if not self._chain:
            return []
        lvl = self._chain[0]
        t, t_inv = (_perm(rows[lvl.position[point]])
                    for rows in (lvl.table, lvl.forward))
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

_SLICE = 1 << 10  # ranks conjugated at once, by all generators in one call
_CHUNK = 1 << 13  # entries of rows decoded at once


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


def _perms(blocks, n, out):
    """out, extended by the Perms of the uint16 row blocks of degree n (an
    iterable), in order. The tuples share the int objects of the degree's
    identity tuple."""
    points = np.array(_ident(n), dtype=object)
    for block in blocks:
        out.extend(map(Perm._raw, map(tuple, points[block].tolist())))
    return out


def _rank_rows(images, ranks, n):
    """The rows of the elements of the given ranks, decoded by `images` of
    `_rank_space` in blocks of `_CHUNK` entries, so no temporary grows with
    the number of ranks."""
    points, step = np.arange(n), max(1, _CHUNK // max(1, n))
    for lo in range(0, len(ranks), step):
        yield images(ranks[lo:lo + step], points)


def _rank_space(G):
    """(images, conjugates, rank) on the ranks [0, |G|) of G's elements. The
    element of rank r is u_0 o ... o u_k, u_i the forward coset
    representative (the level's `forward` row) at r's mixed-radix digit of
    level i.
    images(ranks, points): the images of points (a row, or a row per rank)
    under each rank's element.
    conjugates(ranks): a k x len(ranks) array, k the number of generators:
    row j holds the ranks of s^-1 g s for s the j-th generator, from its base
    images s(g(s^-1(b))) alone. One `images` call reads the images under
    every g of the points s^-1(b), over all s and b at once, and one `_rank`
    call ranks all k rows. rank(rows, pre): the ranks of pre * c for the
    uint16 rows c (pre, a Perm of G, defaults to the identity). Raises
    CapExceeded when |G| > ENUM_CAP."""
    check_enum_cap(G)
    chain = G._chain
    base = [lvl.base_point for lvl in chain]
    k, n, b = len(G.gens), G.degree, len(base)
    gens = _perm_rows(G.gens, n).astype(np.intp)
    # the distinct points s^-1(b), and per generator the columns of its own
    preimages, columns = np.unique(np.argsort(gens, axis=1)[:, base],
                                   return_inverse=True)
    columns = columns.reshape(k, b)
    offsets = (np.arange(k) * n)[:, None]  # of each generator's row in gens

    def images(ranks, points):
        x = np.broadcast_to(points, (len(ranks), np.shape(points)[-1]))
        for lvl in chain[::-1]:
            ranks, digit = np.divmod(ranks, len(lvl.orbit))
            x = _gather(lvl.forward, digit, x)
        return x

    def conjugates(ranks):
        # x[r, j]: g(s_j^-1(b)) for the element g of rank r, then s_j of it
        x = images(ranks, preimages)[:, columns]
        rows = gens.ravel().take(x + offsets).transpose(1, 0, 2)
        m = len(ranks)
        return _rank(chain, rows.reshape(k * m, b)).reshape(k, m)

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
    moves = np.concatenate([conjugates(ranks[lo:lo + _SLICE])
                            for lo in range(0, G.order, _SLICE)], axis=1)
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
    out = _perms(_rank_rows(images, ranks, G.degree), G.degree, [])
    ends = np.cumsum(sizes).tolist()
    return [out[e - size:e] for size, e in zip(sizes.tolist(), ends)]


def normalizer_of_cyclic(G, g):
    """N_G(<g>), found by `_normalizer_rows` and generated by some of the
    elements found, taken in search order: an element is taken when it is
    not in the group the ones taken before generate, so each at least
    doubles the order and there are at most log2 |N| of them. That group is
    listed as it grows by Dimino's algorithm (Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991): taking x into H
    adds the right cosets H*r, r = x first, then each product of a new
    coset's representative by a generator taken that is in no coset yet.
    Its order must be the number of elements found, else AssertionError.
    g must lie in G (else NotASubgroup) and |G| must be at most ENUM_CAP
    (else CapExceeded)."""
    n = G.degree
    found = _perms([_normalizer_rows(G, g)], n, [])
    gens, elements = [], [Perm.identity(n)]
    members = {elements[0].images}

    def add_coset(H, r):
        coset = [h * r for h in H]
        elements.extend(coset)
        members.update(c.images for c in coset)

    for x in found:
        if x.images in members:
            continue
        gens.append(x)
        H, reps = list(elements), [x]
        add_coset(H, x)
        for r in reps:  # reps grows as cosets are found
            for s in gens:
                w = r * s
                if w.images not in members:
                    add_coset(H, w)
                    reps.append(w)
    if len(elements) != len(found):
        raise AssertionError(f"the {len(gens)} generators taken generate a "
                             f"group of order {len(elements)}, but the "
                             f"search found {len(found)} elements")
    return PermGroup(n, gens)


def _normalizer_rows(G, g):
    """The uint16 rows of the elements of N_G(<g>), in the order a backtrack
    search over G's chain finds them (Seress, Permutation Group Algorithms,
    ch. 9).

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
    with |G|; only the rows found are kept.
    """
    if not G.contains(g):
        raise NotASubgroup("g is not in G")
    check_enum_cap(G)
    n = G.degree
    base = [lvl.base_point for lvl in G._chain]
    ident = np.array(_ident(n), dtype=np.uint16)
    if not base:  # G is trivial
        return ident[None]
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
    return np.concatenate([ident[None][:0], *found])


# ---------------------------------------------------------------------------
# coset actions

def right_coset_keys(M):
    """A function rows -> the canonical keys of the right cosets M*r, one
    for each uint16 row r, as a list of bytes.

    The key of r is the bytes of the row of the one element of M*r whose
    images of M's base points are lexicographically least. It is found by
    descending M's chain: at each level, move the orbit point whose image
    under r is least onto the base point, by r -> u*r with u the level's
    forward coset representative (base point -> orbit point). The rows are
    descended a block of `_SIFT` entries at a time, with one argmin over the
    orbit and one gather per level and block; M is never enumerated.
    """
    M._build_chain()
    # per level: the orbit (orbit[0] is the base point) and the forward rows
    levels = [(np.array(lvl.orbit), lvl.forward) for lvl in M._chain]
    width = 2 * M.degree  # bytes of a key
    step = max(1, _SIFT // max(1, M.degree))

    def keys(rows):
        out = []
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            at = np.arange(len(r))
            for orbit, forward in levels:
                r = _gather(r, at, forward[r[:, orbit].argmin(axis=1)])
            b = r.tobytes()
            out += [b[k * width:(k + 1) * width] for k in range(len(r))]
        return out

    return keys


class CosetAction:
    """Action of A on the right cosets of M, found breadth first from M
    itself under right multiplication by A's generators. A coset is labelled
    by `right_coset_keys(M)`, so reps[i] is the first element of A reached in
    coset i: the cosets are numbered in order of discovery, rep by rep and,
    for each rep, generator by generator. Each frontier's products are keyed
    in blocks, not one at a time. Provides the induced permutation for any
    element of A. The search runs on uint16 rows (r * g is g's row gathered
    at r's); Perms are made only for `reps`, `image` and `group`."""

    def __init__(self, A, M):
        if A.first_outside(_perm_rows(M.gens, A.degree)) >= 0:
            raise NotASubgroup("M is not contained in A")
        if A.order // M.order > DEGREE_CAP:
            raise CapExceeded(f"index {A.order // M.order} exceeds cap {DEGREE_CAP}")
        self.A = A
        self.M = M
        self._keys = keys = right_coset_keys(M)
        n, k = A.degree, len(A.gens)
        gens = _perm_rows(A.gens, n)
        frontier = np.array([_ident(n)], dtype=np.uint16)
        self._canon_to_idx = index_of = {keys(frontier)[0]: 0}
        reps = [frontier]
        # labels[i * k + s]: the coset of reps[i] * gens[s]
        labels = []
        step = max(1, _SIFT // max(1, n))
        while len(frontier) and k:
            # the frontier's products, rep-major and generator-minor
            r, s = np.divmod(np.arange(len(frontier) * k), k)
            new = []
            for lo in range(0, len(r), step):
                w = _gather(gens, s[lo:lo + step], frontier[r[lo:lo + step]])
                fresh = []
                for c, key in enumerate(keys(w)):
                    j = index_of.get(key)
                    if j is None:
                        j = index_of[key] = len(index_of)
                        fresh.append(c)
                    labels.append(j)
                if fresh:
                    new.append(w[fresh])
            reps += new
            frontier = np.concatenate([frontier[:0], *new])
        self._rows = np.concatenate(reps)
        self.index = len(self._rows)
        if self.index != A.order // M.order:
            raise NotASubgroup("coset count does not match the index")
        images = [tuple(labels[s::k]) for s in range(k)]
        # Perm._raw does not check images, and a chain built from a wrong
        # labelling need not finish. Every label is below the index, so
        # index distinct labels are a permutation.
        if any(len(set(im)) != self.index for im in images):
            raise AssertionError("a generator does not permute the cosets")
        self.group = PermGroup(self.index, [Perm._raw(im) for im in images])

    @property
    def reps(self):
        """The coset representatives as Perms, made afresh on each read."""
        return _perms([self._rows], self.A.degree, [])

    def image(self, g):
        """The permutation induced by g on the cosets. Raises
        DegreeMismatch when g is not of A's degree, and NotASubgroup when g
        is not in A: M*g is then no coset of M in A, so its key is unknown."""
        ws = _perm_rows([g], self.A.degree)[0][self._rows]
        try:
            return Perm._raw(tuple(map(self._canon_to_idx.__getitem__,
                                       self._keys(ws))))
        except KeyError:
            raise NotASubgroup("g is not in A") from None

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
    """GF(p^k), elements as tuples of k coefficients (low degree first).

    Products, inverses and powers are lookups in a log/antilog (Zech) table
    of the multiplicative group (Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, 2005), built once per field from the first
    primitive element in `elements()` order, the one
    `multiplicative_generator` returns: `_exp[i]` is its i-th power for i
    in [0, 2(q-1)), so a product of two nonzero elements needs no reduction
    of its log, and `_log` maps each nonzero element to its log."""

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
        self._generator, powers = self._primitive_powers()
        self._exp = powers + powers
        self._log = {x: i for i, x in enumerate(powers)}

    def _primitive_powers(self):
        """(g, [g^0, ..., g^(q-2)]) for the first primitive g in `elements()`
        order: the powers of each candidate are walked until they return to
        one, and g is the first whose walk has q - 1 steps."""
        for x in self.elements()[1:]:  # all but zero
            powers, y = [self.one], x
            while y != self.one:
                powers.append(y)
                y = self._horner_mul(y, x)
            if len(powers) == self.q - 1:
                return x, powers
        raise RuntimeError("no generator found")

    def _horner_mul(self, y, x):
        """y * x by Horner's rule in x's coefficients, t^k reduced by the
        monic modulus. Only the table build multiplies polynomials."""
        p, k = self.p, self.k
        if k == 1:
            return ((y[0] * x[0]) % p,)
        out = [0] * k
        for c in reversed(x):  # Horner: out = out * t + c * y
            top = out[-1]
            out = [0] + out[:-1]
            if top:
                out = [(a - top * m) % p for a, m in zip(out, self.modulus)]
            out = [(a + c * b) % p for a, b in zip(out, y)]
        return tuple(out)

    def elements(self):
        """The q elements, the coefficients of n = 0, 1, ... in base p."""
        return [v[::-1] for v in product(range(self.p), repeat=self.k)]

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def mul(self, x, y):
        if x == self.zero or y == self.zero:
            return self.zero
        return self._exp[self._log[x] + self._log[y]]

    def power(self, x, n):
        """x^n for any integer n; ZeroDivisionError for x = 0 and n < 0."""
        if x == self.zero:
            if n < 0:
                raise ZeroDivisionError
            return self.one if n == 0 else self.zero
        return self._exp[self._log[x] * n % (self.q - 1)]

    def inv(self, x):
        return self.power(x, -1)

    def frobenius(self, x):
        return self.power(x, self.p)

    def multiplicative_generator(self):
        return self._generator


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
    """The first element of order n that a breadth-first search from the
    identity meets, which right-multiplies each element of a frontier by the
    generators in order, frontier by frontier. The search stops there, and
    G's element cache is left as it is. This order, not rank order, picks
    the torus element, and so the point labels, of psl2_torus_coset_action.
    Raises CapExceeded when |G| > ENUM_CAP, and ValueError when no element
    has order n: at once when n < 1 or n does not divide |G| (Lagrange)."""
    check_enum_cap(G)
    if n < 1 or G.order % n:
        raise ValueError(f"no element of order {n}: |G| = {G.order}")
    ident = Perm.identity(G.degree)
    if n == 1:
        return ident
    seen, frontier = {ident.images}, [ident]
    while frontier:
        layer = []
        for h in frontier:
            for s in G.gens:
                w = h * s
                if w.images not in seen:
                    if w.order() == n:
                        return w
                    seen.add(w.images)
                    layer.append(w)
        frontier = layer
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
    of P^1(F_q), as the cosets of M, the setwise stabilizer of {0, infinity}.

    PSL2(q) is 2-transitive, so the index is q(q+1)/2 in every ambient. M is
    generated by the ambient's generators that fix {0, infinity}: all but the
    translations. For q = 9, M is a Sylow 2-subgroup of the ambient.
    ambient: 'psl', 'pgammal', or 'm10' (q=9 only). Returns (coset_action,
    G_in_ambient) as psl2_torus_coset_action does.
    """
    A, G, _ = _projective_group(q, ambient)
    pair = {0, q}  # the points 0 and infinity of ProjectiveLine
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

