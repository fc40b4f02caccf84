"""Permutations, stabilizer chains, pair orbits, coset actions, and the
projective/affine group constructions."""

import itertools
import random
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schurscope import claims, permcore
from schurscope.exceptio import build_wreath_diagonal_example
from schurscope.permcore import (
    ENUM_CAP,
    AffineSpace,
    CapExceeded,
    CosetAction,
    DegreeMismatch,
    NotASubgroup,
    Perm,
    PermGroup,
    SmallGF,
    conjugacy_classes,
    element_of_order,
    format_cycles,
    normalizer_of_cyclic,
    orbits_on_pairs,
    psl2,
    psl2_sylow2_coset_action,
    psl2_torus_coset_action,
    right_coset_key,
)


def brute_force_closure(degree, gens, cap=50000):
    seen = {Perm.identity(degree).images}
    frontier = [Perm.identity(degree)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h.images not in seen:
                    seen.add(h.images)
                    nxt.append(h)
                    if len(seen) > cap:
                        raise RuntimeError("cap")
        frontier = nxt
    return seen


def test_perm_basics():
    g = Perm([1, 2, 0, 4, 3])
    assert g.order() == 6
    assert sorted(map(len, g.cycles(include_fixed=True))) == [2, 3]
    assert (g * g.inverse()).is_identity()
    assert g ** 6 == Perm.identity(5)
    assert g ** -1 == g.inverse()
    assert g.fixed_points() == []
    h = Perm([0, 1, 2, 3, 4])
    assert (g * h) == g
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(DegreeMismatch):
        g * Perm([1, 0])


def test_perm_right_action_convention():
    g = Perm([1, 0, 2])
    h = Perm([0, 2, 1])
    assert (g * h)(0) == h(g(0))


def test_format_cycles():
    assert format_cycles(Perm([1, 2, 0, 4, 3])) == "(0 1 2)(3 4)"
    assert format_cycles(Perm([1, 0, 3, 2, 4, 5])) == "(0 1)(2 3)"
    assert format_cycles(Perm([0, 2, 1])) == "(1 2)"
    assert format_cycles(Perm.identity(4)) == repr(Perm.identity(4)) == "()"


def test_group_order_random_vs_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(3, 7)
        k = rng.randint(1, 3)
        gens = []
        for _ in range(k):
            images = list(range(deg))
            rng.shuffle(images)
            gens.append(Perm(images))
        G = PermGroup(deg, gens)
        assert G.order == len(brute_force_closure(deg, gens))


def test_group_membership():
    # A4 on 4 points
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    assert A4.order == 12
    assert A4.contains(Perm([2, 3, 0, 1]))
    assert not A4.contains(Perm([1, 0, 2, 3]))  # odd


def test_direct_product_order():
    # S3 x S3 as a subgroup of S6 (regression: needs strong generators from
    # deeper levels when computing shallow orbits)
    gens = [Perm([1, 0, 2, 3, 4, 5]), Perm([1, 2, 0, 3, 4, 5]),
            Perm([0, 1, 2, 4, 3, 5]), Perm([0, 1, 2, 4, 5, 3])]
    assert PermGroup(6, gens).order == 36


def test_stabilizer_gens():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    H = PermGroup(4, S4.stabilizer_gens(0))
    assert H.order == 6
    assert all(g(0) == 0 for g in H.gens)


def test_orbits_and_transitivity():
    g = Perm([1, 0, 2, 4, 3, 5])
    G = PermGroup(6, [g])
    assert sorted(G.orbit(0)) == [0, 1]
    assert not G.is_transitive()
    C6 = PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])])
    assert C6.is_transitive()


def test_orbits_on_pairs_rank():
    # S_n is 2-transitive: rank 2 on ordered pairs (diagonal + rest)
    Sn = PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])])
    po = orbits_on_pairs(Sn.gens, 5)
    assert po.orbit_count() == 2
    # cyclic group of order 5 is regular: rank 5
    C5 = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
    assert orbits_on_pairs(C5.gens, 5).orbit_count() == 5


def test_conjugacy_classes_s4():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    sizes = sorted(len(c) for c in conjugacy_classes(S4))
    assert sizes == [1, 3, 6, 6, 8]


def test_centralizer_and_class_sizes():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    for rep, centralizer_order in ((Perm([1, 0, 2, 3]), 4),
                                   (Perm([1, 2, 0, 3]), 3),
                                   (Perm([1, 2, 3, 0]), 4)):
        commuting = [h for h in S4.elements() if h * rep == rep * h]
        cls = next(c for c in conjugacy_classes(S4) if rep in c)
        assert len(commuting) == centralizer_order
        assert len(commuting) * len(cls) == S4.order


def test_normalizer_of_cyclic_brute():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    t = Perm([1, 2, 3, 0])
    N = normalizer_of_cyclic(S4, t)
    powers = {(t ** k).images for k in range(t.order())}
    brute = [g for g in S4.elements()
             if (g.inverse() * t * g).images in powers]
    assert N.order == len(brute)


def test_two_set_action_has_degree_q_q_plus_1_over_2():
    for q in (5, 7, 8, 9, 13):
        act, _ = psl2_sylow2_coset_action(q)
        assert act.index == q * (q + 1) // 2, q
        assert act.group.is_transitive()
    # for q = 9 the stabiliser of {0, INF} is a Sylow 2-subgroup
    for ambient in ("psl", "m10", "pgammal"):
        act, _ = psl2_sylow2_coset_action(9, ambient)
        two_part = act.A.order & -act.A.order
        assert (act.M.order, act.A.order) == (two_part, 45 * two_part), ambient


@pytest.mark.parametrize("q, ambient", [(8, "m10"), (9, "pgl")])
def test_coset_actions_refuse_an_ambient_that_is_not_an_overgroup(q, ambient):
    # M10 exists only over F_9
    for action in (psl2_sylow2_coset_action, psl2_torus_coset_action):
        with pytest.raises(ValueError, match=f"no ambient '{ambient}'"):
            action(q, ambient)


def test_element_of_order():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    for n in (2, 3, 4):
        assert element_of_order(S4, n).order() == n
    with pytest.raises(ValueError):
        element_of_order(S4, 5)


@pytest.mark.parametrize("make, orders", [
    (lambda: _s4(), (1, 2, 3, 4)),
    (lambda: psl2(8)[0], (2, 3, 7, 9)),
    (lambda: psl2(9)[0], (2, 3, 4, 5)),
    (lambda: psl2(16)[0], (2, 3, 5, 15, 17)),
    (lambda: permcore._projective_group(8, "pgammal")[0], (2, 3, 6, 7, 9)),
], ids=["s4", "psl2(8)", "psl2(9)", "psl2(16)", "pgammal2(8)"])
def test_element_of_order_is_the_first_in_enumeration_order(make, orders):
    G = make()
    els = make().elements()
    for n in orders:
        want = next(h for h in els if h.order() == n)
        assert element_of_order(G, n) == want
    assert G._elements is None


def test_torus_coset_action_never_enumerates_psl2_32():
    act, G = psl2_torus_coset_action(32, "psl")
    assert act.A._elements is None and G._elements is None


def test_small_gf():
    F8 = SmallGF(2, 3)
    els = F8.elements()
    assert len(els) == 8
    g = F8.multiplicative_generator()
    powers = {g}
    cur = g
    for _ in range(6):
        cur = F8.mul(cur, g)
        powers.add(cur)
    assert len(powers) == 7  # g generates the multiplicative group


def test_projective_group_orders():
    A, _ = psl2(8)
    assert A.degree == 9 and A.order == 504
    A = permcore._projective_group(8, "pgammal")[0]
    assert A.order == 1512
    A, _ = psl2(9)
    assert A.degree == 10 and A.order == 360
    A = permcore._projective_group(9, "m10")[0]
    assert A.order == 720
    A = permcore._projective_group(32, "pgammal")[0]
    assert A.degree == 33 and A.order == 163680


def test_psl2_is_transitive_and_simple_order():
    G, _ = psl2(7)
    assert G.is_transitive() and G.order == 168


def test_coset_action_s4_mod_s3():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    M = PermGroup(4, S4.stabilizer_gens(3))
    act = CosetAction(S4, M)
    A = act.group
    assert A.degree == 4 and A.order == 24
    # the action homomorphism is multiplicative
    g, h = S4.gens
    assert act.image(g * h) == act.image(g) * act.image(h)


def test_torus_coset_action_degrees():
    act, G = psl2_torus_coset_action(8, "psl")
    assert act.group.degree == 28 and act.group.order == 504
    assert act.group.is_transitive()
    act, G = psl2_torus_coset_action(8, "pgammal")
    assert act.group.degree == 28 and act.group.order == 1512
    act, G9 = psl2_sylow2_coset_action(9, "m10")
    assert act.group.degree == 45 and act.group.order == 720
    # PSL2(9) inside M10, pushed through the action
    inner = PermGroup(45, [act.image(g) for g in G9.gens])
    assert inner.order == 360


def test_affine_space_and_group():
    sp = AffineSpace(2, 4)
    t = sp.translation((1, 0, 0, 0))
    assert t.order() == 2
    # GL generated by a single invertible matrix: the map is a permutation
    mat = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]]
    lin = sp.linear(mat)
    assert lin(0) == 0  # linear maps fix the origin
    basis = [sp.translation(tuple(int(i == j) for j in range(4)))
             for i in range(4)]
    G = PermGroup(sp.n, basis + [lin])
    assert G.degree == 16
    assert G.order % 16 == 0  # contains all translations


# ---------------------------------------------------------------------------
# the kernel against its definitions


def slow_compose(g, h):
    """(g*h)(i) = h(g(i)), point by point."""
    return tuple(h.images[g.images[i]] for i in range(g.degree))


@st.composite
def _perms(draw, count):
    n = draw(st.integers(0, 50))
    return [Perm(draw(st.permutations(range(n)))) for _ in range(count)]


@given(_perms(2))
@example([Perm([]), Perm([])])
@example([Perm([0]), Perm([0])])
@example([Perm([1, 0]), Perm([1, 0])])
@settings(max_examples=200, deadline=None)
def test_compose_matches_definition(gh):
    g, h = gh
    prod = g * h
    assert isinstance(prod.images, tuple)
    assert prod.images == slow_compose(g, h)


@given(_perms(1))
@example([Perm([])])
@example([Perm([0])])
@settings(max_examples=200, deadline=None)
def test_inverse_undoes(gs):
    g, = gs
    ident = tuple(range(g.degree))
    assert (g * g.inverse()).images == ident
    assert (g.inverse() * g).images == ident
    assert all(g.inverse()(g(i)) == i for i in range(g.degree))


@given(_perms(1), st.integers(-6, 6))
@example([Perm([])], -2)
@example([Perm([0])], 3)
@settings(max_examples=200, deadline=None)
def test_power_matches_repeated_products(gs, k):
    g, = gs
    step = g if k >= 0 else g.inverse()
    want = tuple(range(g.degree))
    for _ in range(abs(k)):
        want = slow_compose(Perm(want), step)
    assert (g ** k).images == want


@given(_perms(1))
@example([Perm([])])
@example([Perm([0])])
@settings(max_examples=200, deadline=None)
def test_identity_agrees_with_range(gs):
    g, = gs
    n = g.degree
    assert g.is_identity() == (g.images == tuple(range(n)))
    assert Perm.identity(n).images == tuple(range(n))
    assert Perm.identity(n).is_identity()
    assert Perm(list(range(n))).is_identity()


@given(_perms(1), _perms(1))
@example([Perm([])], [Perm([0])])
@example([Perm([0])], [Perm([1, 0])])
@settings(max_examples=100, deadline=None)
def test_degree_mismatch_raises(gs, hs):
    g, h = gs[0], hs[0]
    assume(g.degree != h.degree)
    with pytest.raises(DegreeMismatch):
        g * h
    with pytest.raises(DegreeMismatch):
        h * g


# ---------------------------------------------------------------------------
# stabilizer chains against closures


def _random_group(rng, deg):
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(deg))
        rng.shuffle(images)
        gens.append(Perm(images))
    return PermGroup(deg, gens), gens


def _assert_transversals_map_to_base(G):
    G._build_chain()
    for lvl in G._chain:
        assert len(lvl.table) == len(lvl.orbit) == len(set(lvl.orbit))
        off = sorted(set(range(G.degree)) - set(lvl.orbit))
        assert list(lvl.position[off]) == [-1] * len(off)
        for k, pt in enumerate(lvl.orbit):
            assert lvl.position[pt] == k
            assert sorted(lvl.table[k].tolist()) == list(range(G.degree))
            assert lvl.table[k][pt] == lvl.base_point


def test_contains_matches_closure_on_all_of_sn():
    rng = random.Random(11)
    for _ in range(30):
        deg = rng.randint(1, 5)
        G, gens = _random_group(rng, deg)
        closure = brute_force_closure(deg, gens)
        for images in itertools.permutations(range(deg)):
            assert G.contains(Perm(images)) == (images in closure)
        _assert_transversals_map_to_base(G)


def test_contains_matches_closure_on_random_perms():
    rng = random.Random(13)
    for _ in range(30):
        deg = rng.randint(6, 7)
        G, gens = _random_group(rng, deg)
        closure = brute_force_closure(deg, gens)
        members = rng.sample(sorted(closure), min(len(closure), 40))
        others = []
        for _ in range(40):
            images = list(range(deg))
            rng.shuffle(images)
            others.append(tuple(images))
        for images in members + others:
            assert G.contains(Perm(images)) == (images in closure)
        _assert_transversals_map_to_base(G)


def test_stabilizer_gens_orbit_stabilizer_on_torus_action():
    act, _ = psl2_torus_coset_action(8, "psl")
    G = act.group
    H = PermGroup(G.degree, G.stabilizer_gens(0))
    assert all(h(0) == 0 for h in H.gens)
    assert H.order * len(G.orbit(0)) == G.order == 504


def test_torus_coset_action_uses_the_ambient_psl2_as_g():
    act, G = psl2_torus_coset_action(8, "psl")
    assert G is act.A
    assert G.order == 504


# ---------------------------------------------------------------------------
# coset labels, element and class closures against the Python oracles


def old_coset_action(A, M):
    """Coset numbering and generator images with the coset of r labelled by
    the least images tuple over all of M * r."""
    m_els = M.elements()

    def canon(r):
        return min((m * r).images for m in m_els)

    reps = [Perm.identity(A.degree)]
    index_of = {canon(reps[0]): 0}
    i = 0
    while i < len(reps):
        for g in A.gens:
            w = reps[i] * g
            c = canon(w)
            if c not in index_of:
                index_of[c] = len(reps)
                reps.append(w)
        i += 1
    images = [tuple(index_of[canon(r * g)] for r in reps) for g in A.gens]
    return [r.images for r in reps], images


def _s4_mod_s3():
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    return CosetAction(S4, PermGroup(4, S4.stabilizer_gens(3)))


def _wreath_s3_3():
    S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    return build_wreath_diagonal_example(S3, 3)[2]


@pytest.mark.parametrize("make", [
    lambda: psl2_torus_coset_action(8, "psl")[0],
    lambda: psl2_torus_coset_action(8, "pgammal")[0],
    lambda: psl2_sylow2_coset_action(9, "psl")[0],
    lambda: psl2_sylow2_coset_action(9, "m10")[0],
    _s4_mod_s3,
    _wreath_s3_3,
], ids=["psl2(8)-torus", "pgammal2(8)-torus", "psl2(9)-sylow2",
        "m10-sylow2", "s4-mod-s3", "s3-wreath-c3"])
def test_coset_action_matches_min_over_m_labels(make):
    act = make()
    reps, images = old_coset_action(act.A, act.M)
    assert [r.images for r in act.reps] == reps
    assert [act.image(g).images for g in act.A.gens] == images
    assert [g.images for g in act.group.gens] == \
        [g.images for g in PermGroup(act.index, images).gens]


def test_coset_action_never_enumerates_m():
    A, _ = psl2(8)
    t = element_of_order(A, 9)
    M = normalizer_of_cyclic(A, t)
    act = CosetAction(A, M)
    assert M._elements is None
    assert act.index == 28


def test_right_coset_key_is_constant_on_cosets():
    A = permcore._projective_group(8, "pgammal")[0]
    M = normalizer_of_cyclic(A, element_of_order(A, 9))
    key = right_coset_key(M)
    rng = random.Random(3)
    els = A.elements()
    for r in rng.sample(els, 20):
        k = key(r)
        assert k in {(m * r).images for m in M.elements()}
        assert all(key(m * r) == k for m in M.elements())


def old_elements(G, cap):
    """Python BFS closure from the identity, frontier by frontier."""
    ident = Perm.identity(G.degree)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for g in G.gens:
                w = h * g
                if w.images not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group larger than cap {cap}")
                    seen[w.images] = w
                    new.append(w)
        frontier = new
    return [e.images for e in seen.values()]


def old_conjugacy_class(G, g):
    seen = {g.images}
    queue = [g]
    while queue:
        h = queue.pop()
        for s in G.gens:
            w = s.inverse() * h * s
            if w.images not in seen:
                seen.add(w.images)
                queue.append(w)
    return seen


def _assert_ints_shared(perms, n):
    ident = Perm.identity(n).images
    assert all(x is ident[x] for p in perms for x in p.images)


@st.composite
def _groups(draw):
    n = draw(st.integers(0, 7))
    gens = [Perm(draw(st.permutations(range(n))))
            for _ in range(draw(st.integers(0, 3)))]
    return PermGroup(n, gens) if gens else PermGroup(n, [Perm.identity(n)])


@given(_groups())
@example(PermGroup(0, [Perm([])]))
@example(PermGroup(1, [Perm([0])]))
@example(PermGroup(5, [Perm.identity(5)]))
@settings(max_examples=150, deadline=None)
def test_elements_match_python_bfs(G):
    want = old_elements(G, ENUM_CAP)
    assert [e.images for e in G.elements()] == want
    _assert_ints_shared(G.elements(), G.degree)


@given(_groups())
@example(PermGroup(0, [Perm([])]))
@example(PermGroup(5, [Perm.identity(5)]))
@settings(max_examples=100, deadline=None)
def test_rank_space_matches_perm_arithmetic(G):
    images, conjugates, rank = permcore._rank_space(G)
    ranks = np.arange(G.order)
    rows = np.asarray(images(ranks, np.arange(G.degree)), dtype=np.uint16)
    perms = [Perm(r) for r in rows.tolist()]
    # each rank is one element of G, and its rank is read back
    assert sorted(p.images for p in perms) == sorted(old_elements(G, ENUM_CAP))
    assert rank(rows).tolist() == ranks.tolist()
    assert perms[0].is_identity()
    for s, got in zip(G.gens, conjugates(ranks)):
        conj = [s.inverse() * g * s for g in perms]
        assert got.tolist() == rank(np.array(
            [c.images for c in conj], dtype=np.uint16).reshape(rows.shape)).tolist()
    pre = perms[-1]
    assert rank(rows, pre).tolist() == rank(np.array(
        [(pre * g).images for g in perms], dtype=np.uint16).reshape(rows.shape)).tolist()


def old_partition(G):
    """The conjugacy classes of G by the Python closures, as a set of
    frozensets of image tuples."""
    remaining = set(old_elements(G, ENUM_CAP))
    out = set()
    for e in old_elements(G, ENUM_CAP):
        if e in remaining:
            cls = old_conjugacy_class(G, Perm(e))
            remaining -= cls
            out.add(frozenset(cls))
    return out


def _assert_class_order(G, classes):
    """The classes in the order of their least ranks in G's chain, the
    identity's first, and each in rank order."""
    _, _, rank = permcore._rank_space(G)
    assert classes[0] == [Perm.identity(G.degree)]
    ranks = [rank(np.array([c.images for c in cls],
                           dtype=np.uint16).reshape(len(cls), G.degree)).tolist()
             for cls in classes]
    assert all(r == sorted(r) for r in ranks)
    assert [r[0] for r in ranks] == sorted(r[0] for r in ranks)


def assert_classes_match_python(G):
    classes = conjugacy_classes(G)
    assert all(len(cls) == len({c.images for c in cls}) for cls in classes)
    assert sum(map(len, classes)) == G.order
    assert {frozenset(c.images for c in cls) for cls in classes} == \
        old_partition(G)
    _assert_class_order(G, classes)
    return classes


@given(_groups(), st.data())
@example(PermGroup(0, [Perm([])]), None)
@example(PermGroup(1, [Perm([0])]), None)
@example(PermGroup(5, [Perm.identity(5)]), None)
@settings(max_examples=150, deadline=None)
def test_conjugacy_classes_match_python_closure(G, data):
    classes = assert_classes_match_python(G)
    if data is not None:
        g = data.draw(st.sampled_from(G.elements()))
        cls = next(c for c in classes if g in c)
        assert {c.images for c in cls} == old_conjugacy_class(G, g)


def test_elements_and_classes_match_python_on_psl2_8():
    G, _ = psl2(8)
    assert [e.images for e in G.elements()] == old_elements(G, ENUM_CAP)
    assert_classes_match_python(G)


@pytest.mark.parametrize("make", [
    lambda: permcore._projective_group(8, "pgammal")[0], lambda: psl2(16)[0],
    lambda: psl2_torus_coset_action(8)[0].group,
    lambda: psl2_sylow2_coset_action(9)[0].group,
], ids=["pgammal2(8)", "psl2(16)", "psl2(8)-on-28", "psl2(9)-on-45"])
def test_conjugacy_classes_match_python(make):
    assert_classes_match_python(make())


def test_conjugacy_classes_of_orders_2_and_3_on_496_points():
    G = psl2_torus_coset_action(32)[0].group
    classes = conjugacy_classes(G)
    assert sum(map(len, classes)) == G.order
    for order in (2, 3):
        [cls] = [c for c in classes if c[0].order() == order]
        assert {c.images for c in cls} == old_conjugacy_class(G, cls[0])
        assert len(cls) == len({c.images for c in cls})


def test_elements_cap_exactly_at_the_order(monkeypatch):
    for make in (lambda: psl2(8)[0],
                 lambda: PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])):
        order = make().order
        monkeypatch.setattr(permcore, "ENUM_CAP", order)
        assert len(make().elements()) == order
        monkeypatch.setattr(permcore, "ENUM_CAP", order - 1)
        with pytest.raises(CapExceeded):
            make().elements()
        with pytest.raises(CapExceeded):
            old_elements(make(), order - 1)


def test_closures_share_the_identity_ints_above_256():
    n = 300
    rot = Perm([(i + 1) % n for i in range(n)])
    flip = Perm([(-i) % n for i in range(n)])
    D = PermGroup(n, [rot, flip])
    els = D.elements()
    assert len(els) == 600
    assert [e.images for e in els] == old_elements(D, ENUM_CAP)
    _assert_ints_shared(els, n)
    classes = conjugacy_classes(D)
    cls = next(c for c in classes if flip in c)
    assert {c.images for c in cls} == old_conjugacy_class(D, flip)
    _assert_ints_shared([c for cls in classes for c in cls], n)


def test_conjugacy_classes_cap_exactly_at_the_order(monkeypatch):
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    monkeypatch.setattr(permcore, "ENUM_CAP", 12)
    assert sorted(map(len, conjugacy_classes(A4))) == [1, 3, 4, 4]
    monkeypatch.setattr(permcore, "ENUM_CAP", 11)
    with pytest.raises(CapExceeded):
        conjugacy_classes(A4)


@pytest.mark.parametrize("slice_, chunk", [(1, 1), (4, 10_000), (64, 100)])
def test_closures_keep_their_order_across_slices_and_chunks(
        monkeypatch, slice_, chunk):
    monkeypatch.setattr(permcore, "_SLICE", slice_)
    monkeypatch.setattr(permcore, "_CHUNK", chunk)
    G, _ = psl2(8)
    assert [e.images for e in G.elements()] == old_elements(G, ENUM_CAP)
    assert_classes_match_python(G)


# ---------------------------------------------------------------------------
# point stabilizers, chains and cyclic normalizers against the Python oracles


def old_stabilizer_gens(G, point):
    """The Schreier generators of the stabilizer of `point`, from a
    transversal of its orbit under G's generators (Schreier's lemma)."""
    gens = [(g, g.inverse()) for g in G.gens]
    transversal = {point: Perm.identity(G.degree)}  # pt -> (pt -> point)
    queue = [point]
    while queue:
        pt = queue.pop()
        for g, g_inv in gens:
            img = g.images[pt]
            if img not in transversal:
                transversal[img] = g_inv * transversal[pt]
                queue.append(img)
    out = []
    seen = set()
    for pt, t_inv in transversal.items():
        rep = t_inv.inverse()
        for g, _ in gens:
            s = rep * g * transversal[g.images[pt]]
            if not s.is_identity() and s.images not in seen:
                seen.add(s.images)
                out.append(s)
    return out


class OldLevel:
    """A chain level with its transversal as a dict: point -> the inverse
    coset representative, a Perm mapping the point to the base point."""

    def __init__(self, base_point, degree):
        self.base_point = base_point
        self.gens = []
        self.transversal = {base_point: Perm.identity(degree)}


def old_strip(chain, i, g):
    """Sift the Perm g through levels i.. : (stuck level, residue)."""
    while i < len(chain):
        lvl = chain[i]
        t_inv = lvl.transversal.get(g.images[lvl.base_point])
        if t_inv is None:
            return i, g
        g = g * t_inv
        i += 1
    return i, g


def old_build_chain(degree, gens):
    """Schreier-Sims on Perm tuples that sifts every Schreier generator
    alone, tree edges included, with the verified set keyed by generator
    images, and that stores every residue, equal ones included. Returns the
    chain of `OldLevel`s, the verified set of (level, point, generator
    images) and the set of the orbit trees' edges, keyed alike."""
    chain = []

    def add_generator(i, g):
        if i == len(chain):
            bp = next(k for k, x in enumerate(g.images) if x != k)
            chain.append(OldLevel(bp, degree))
        chain[i].gens.append(g)

    def effective_gens(i):
        return [g for lvl in chain[i:] for g in lvl.gens]

    for g in gens:
        j, residue = old_strip(chain, 0, g)
        if not residue.is_identity():
            add_generator(j, residue)

    edges = set()

    def extend_orbit(i):
        lvl = chain[i]
        eff = [(g.images, g.inverse()) for g in effective_gens(i)]
        queue = list(lvl.transversal)
        while queue:
            pt = queue.pop()
            t_inv = lvl.transversal[pt]
            for images, g_inv in eff:
                img = images[pt]
                if img not in lvl.transversal:
                    lvl.transversal[img] = g_inv * t_inv
                    edges.add((i, pt, images))
                    queue.append(img)

    verified = set()
    dirty = True
    while dirty:
        dirty = False
        for i in range(len(chain)):
            extend_orbit(i)
        for i in range(len(chain)):
            lvl = chain[i]
            eff = effective_gens(i)
            for pt in list(lvl.transversal):
                rep = None
                for s in eff:
                    key = (i, pt, s.images)
                    if key in verified:
                        continue
                    if rep is None:
                        rep = lvl.transversal[pt].inverse()
                    schreier = rep * s * lvl.transversal[s.images[pt]]
                    j, residue = old_strip(chain, i + 1, schreier)
                    if residue.is_identity():
                        verified.add(key)
                    else:
                        add_generator(j, residue)
                        dirty = True
                if dirty:
                    break
            if dirty:
                break
    return chain, verified, edges


def old_normalizer_of_cyclic(G, g):
    """N_G(<g>) from the elements h with h^-1 g h a power of g, each
    conjugate computed in full."""
    powers = set()
    h = g
    ident = Perm.identity(G.degree)
    while h.images not in powers and not h.is_identity():
        powers.add(h.images)
        h = h * g
    powers.add(ident.images)
    els = [h for h in G.elements() if (h.inverse() * g * h).images in powers]
    return PermGroup(G.degree, els or [ident])


def _chain_of(chain):
    """Base points, strong generators and transversal rows of a chain, in
    order, read from the uint16 tables."""
    return [(lvl.base_point, [g.images for g in lvl.gens],
             [(pt, tuple(lvl.table[k].tolist()))
              for k, pt in enumerate(lvl.orbit)])
            for lvl in chain]


def _old_chain_of(chain):
    """`_chain_of` for a chain of `OldLevel`s."""
    return [(lvl.base_point, [g.images for g in lvl.gens],
             [(pt, t.images) for pt, t in lvl.transversal.items()])
            for lvl in chain]


def _relabelled(G, seed):
    """G with its points renamed by a seeded shuffle."""
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in G.gens:
        images = [0] * G.degree
        for i, x in enumerate(g.images):
            images[sigma[i]] = sigma[x]
        gens.append(Perm(images))
    return PermGroup(G.degree, gens)


def _s4():
    return PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])


def _c7_wr_c4():
    c7 = Perm([(i + 1) % 7 if i < 7 else i for i in range(28)])
    blocks = Perm([(i + 7) % 28 for i in range(28)])
    return PermGroup(28, [c7, blocks])


_TRANSITIVE = {
    "s4": _s4,
    "psl2(8)-torus": lambda: psl2_torus_coset_action(8, "psl")[0].group,
    "pgammal2(8)-torus": lambda: psl2_torus_coset_action(8, "pgammal")[0].group,
    "psl2(9)-sylow2": lambda: psl2_sylow2_coset_action(9, "psl")[0].group,
}


@pytest.mark.parametrize("name", list(_TRANSITIVE))
def test_stabilizer_gens_match_schreier_lemma(name):
    G0 = _TRANSITIVE[name]()
    for G in (G0, _relabelled(G0, 1), _relabelled(G0, 2)):
        for point in range(G.degree):
            new = PermGroup(G.degree, G.stabilizer_gens(point))
            old = PermGroup(G.degree, old_stabilizer_gens(G, point))
            assert all(h(point) == point for h in new.gens)
            assert new.order == old.order == G.order // G.degree
            assert all(h in old for h in new.gens)
            assert all(h in new for h in old.gens)


def test_stabilizer_gens_need_a_transitive_group():
    G = PermGroup(6, [Perm([1, 0, 2, 4, 3, 5])])
    with pytest.raises(ValueError):
        G.stabilizer_gens(0)
    assert PermGroup(1, [Perm([0])]).stabilizer_gens(0) == []


def _without_repeats(chain):
    """A chain from `_chain_of` with each level's repeated strong generators
    dropped, first copies kept."""
    return [(bp, list(dict.fromkeys(gens)), transversal)
            for bp, gens, transversal in chain]


def _verification(build):
    """The (level, point, generator images) whose Schreier generators the
    build verified as orbit-tree edges, and those it verified by a sift."""
    edges, sifted = set(), set()
    for i, states in enumerate(build.states):
        for s, pt in zip(*np.nonzero(states)):
            key = (i, int(pt), build.gens[s].images)
            (edges if states[s, pt] == permcore._EDGE else sifted).add(key)
    return edges, sifted


def _assert_chain_matches_python_schreier_sims(gens, degree):
    """The same chain as the oracle's with its repeated strong generators
    dropped: base points, strong generators and transversal rows, in order.
    The build verifies the oracle's orbit-tree edges without a sift, since
    their Schreier generators are the identity by construction, and every
    other Schreier generator by a sift, as the oracle does."""
    G = PermGroup(degree, gens)
    build = permcore._SchreierSims(degree, G.gens)
    old, verified, old_edges = old_build_chain(degree, G.gens)
    assert _chain_of(build.chain) == _without_repeats(_old_chain_of(old))
    assert G.order == prod(len(lvl.transversal) for lvl in old)
    edges, sifted = _verification(build)
    assert edges == old_edges
    assert sum(len(lvl.orbit) - 1 for lvl in build.chain) == len(edges)
    assert sifted == verified - old_edges


@given(_groups())
@example(PermGroup(0, [Perm([])]))
@example(PermGroup(5, [Perm.identity(5)]))
@settings(max_examples=150, deadline=None)
def test_chain_matches_python_schreier_sims(G):
    _assert_chain_matches_python_schreier_sims(G.gens, G.degree)


# the named groups of the tests and claims whose chains are checked against
# the oracle: natural actions, coset actions, wreath products, affine groups
_NAMED = {
    "s4": _s4,
    "psl2(7)": lambda: psl2(7)[0],
    "psl2(16)": lambda: psl2(16)[0],
    "pgammal2(8)": lambda: permcore._projective_group(8, "pgammal")[0],
    "pgammal2(32)": lambda: permcore._projective_group(32, "pgammal")[0],
    "m10": lambda: permcore._projective_group(9, "m10")[0],
    "psl2(8)-torus": _TRANSITIVE["psl2(8)-torus"],
    "pgammal2(8)-torus": _TRANSITIVE["pgammal2(8)-torus"],
    "psl2(9)-sylow2": _TRANSITIVE["psl2(9)-sylow2"],
    "m10-sylow2": lambda: psl2_sylow2_coset_action(9, "m10")[0].group,
    "psl2(32)-torus": lambda: psl2_torus_coset_action(32, "psl")[0].group,
    "psl2(32)-torus-relabelled": lambda: _relabelled(
        psl2_torus_coset_action(32, "psl")[0].group, 3),
    "pgammal2(32)-torus": lambda: psl2_torus_coset_action(
        32, "pgammal")[0].group,
    "c7-wr-c4": _c7_wr_c4,
    "s3-wreath-c3": lambda: _wreath_s3_3().group,
    "s3-wreath-c3-A": lambda: _s3_wreath_c3_pair()[0],
    "s3-wreath-c3-G": lambda: _s3_wreath_c3_pair()[1],
    "gf16-A": lambda: claims._gf16_group_pair()[0],
    "gf16-G": lambda: claims._gf16_group_pair()[1],
}


@pytest.mark.parametrize("name", _NAMED)
def test_chain_matches_python_schreier_sims_with_fewer_sifts(name):
    G = _NAMED[name]()
    _assert_chain_matches_python_schreier_sims(G.gens, G.degree)


@pytest.mark.parametrize("name", ["psl2(8)-torus", "pgammal2(8)-torus",
                                  "c7-wr-c4", "s3-wreath-c3-A",
                                  "psl2(32)-torus"])
def test_chain_is_the_same_sifting_one_row_at_a_time(monkeypatch, name):
    G = _NAMED[name]()
    want = _chain_of(permcore._SchreierSims(G.degree, G.gens).chain)
    for entries in (1, 3 * G.degree):
        monkeypatch.setattr(permcore, "_SIFT", entries)
        got = _chain_of(permcore._SchreierSims(G.degree, G.gens).chain)
        assert got == want, entries


def _s3_wreath_c3_pair():
    S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    return build_wreath_diagonal_example(S3, 3)[:2]


@pytest.mark.parametrize("make", [
    lambda: _s3_wreath_c3_pair()[0],
    lambda: _s3_wreath_c3_pair()[1],
    _TRANSITIVE["pgammal2(8)-torus"],
], ids=["s3-wreath-c3-A", "s3-wreath-c3-G", "pgammal2(8)-torus"])
def test_chain_stores_each_strong_generator_once(make):
    G = make()
    G._build_chain()
    for lvl in G._chain:
        assert len({g.images for g in lvl.gens}) == len(lvl.gens)


def _normalizer_cases():
    """(name, G, g) with g in G: tori of PSL2(q) and PGammaL2(8), every
    element of S4, and the order-4 elements of the deg16 claim's groups."""
    for q in (8, 9, 16):
        G, _ = psl2(q)
        yield f"psl2({q})", G, element_of_order(G, (q + 1) // (1 + q % 2))
    A = permcore._projective_group(8, "pgammal")[0]
    yield "pgammal2(8)", A, element_of_order(psl2(8)[0], 9)
    S4 = _s4()
    for g in S4.elements():
        yield "s4", S4, g
    A, G = claims._gf16_group_pair()
    act, G0 = psl2_sylow2_coset_action(9, "m10")
    for name, (A, G) in (("gf16", (A, G)),
                         ("m10-sylow2", (act.group, act.image_group(G0)))):
        for sigma in G.elements():
            if sigma.order() == 4:
                yield name, A, sigma


def test_normalizer_of_cyclic_matches_per_element_conjugation():
    """The same elements as the oracle's; the search lists them in its own
    order, not in enumeration order."""
    seen = set()
    for name, G, g in _normalizer_cases():
        seen.add(name)
        N = normalizer_of_cyclic(G, g)
        assert {h.images for h in N.gens} == \
            {h.images for h in old_normalizer_of_cyclic(G, g).gens}, name
        assert len(N.gens) == N.order - 1, name
    assert seen == {"psl2(8)", "psl2(9)", "psl2(16)", "pgammal2(8)", "s4",
                    "gf16", "m10-sylow2"}


def test_normalizer_of_cyclic_is_the_same_in_chunks_of_one_row(monkeypatch):
    cases = list(_normalizer_cases())
    want = [[h.images for h in normalizer_of_cyclic(G, g).gens]
            for _, G, g in cases]
    monkeypatch.setattr(permcore, "_CHUNK", 1)
    for (name, G, g), gens in zip(cases, want):
        assert [h.images for h in normalizer_of_cyclic(G, g).gens] == gens, name


def test_normalizer_of_cyclic_needs_g_in_g():
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    with pytest.raises(NotASubgroup):
        normalizer_of_cyclic(A4, Perm([1, 0, 2, 3]))


@pytest.mark.parametrize("q, ambient", [
    (8, "psl"), (8, "pgammal"), (9, "m10"), (16, "psl"), (32, "psl")])
def test_torus_coset_action_matches_per_element_normalizer(q, ambient):
    act, G = psl2_torus_coset_action(q, ambient)
    t = element_of_order(G, (q + 1) // (1 + q % 2))
    old = CosetAction(act.A, old_normalizer_of_cyclic(act.A, t))
    assert [r.images for r in act.reps] == [r.images for r in old.reps]
    assert [g.images for g in act.group.gens] == \
        [g.images for g in old.group.gens]
