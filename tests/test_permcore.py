"""Permutations, stabilizer chains, pair orbits, coset actions, and the
projective/affine group constructions."""

import itertools
import random
import time
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
    right_coset_keys,
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


def orbit_count(pair_orbits):
    """The number of orbits of a PairOrbits partition."""
    return len(np.unique(pair_orbits.labels))


def test_orbits_on_pairs_rank():
    # S_n is 2-transitive: rank 2 on ordered pairs (diagonal + rest)
    Sn = PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])])
    po = orbits_on_pairs(Sn.gens, 5)
    assert orbit_count(po) == 2
    # cyclic group of order 5 is regular: rank 5
    C5 = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
    assert orbit_count(orbits_on_pairs(C5.gens, 5)) == 5


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
    for n in (0, -1):
        with pytest.raises(ValueError, match="no element of order"):
            element_of_order(S4, n)


def test_element_of_order_refuses_a_non_divisor_without_a_search():
    # 7 does not divide |PGammaL2(32)| = 163680 = 2^5 3 5 11 31: Lagrange
    # refuses it before the breadth-first search, which would walk all of G
    A = psl2_torus_coset_action(32, "pgammal")[0].group
    assert A.order == 163680  # builds the chain outside the timed part
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no element of order 7"):
        element_of_order(A, 7)
    with pytest.raises(ValueError, match="no element of order 0"):
        element_of_order(A, 0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("make, orders", [
    (lambda: _s4(), (1, 2, 3, 4)),
    (lambda: psl2(8)[0], (2, 3, 7, 9)),
    (lambda: psl2(9)[0], (2, 3, 4, 5)),
    (lambda: psl2(16)[0], (2, 3, 5, 15, 17)),
    (lambda: permcore._projective_group(8, "pgammal")[0], (2, 3, 6, 7, 9)),
    (lambda: psl2(32)[0], (33,)),
], ids=["s4", "psl2(8)", "psl2(9)", "psl2(16)", "pgammal2(8)", "psl2(32)"])
def test_element_of_order_is_the_first_in_enumeration_order(make, orders):
    # the enumeration order of the Python breadth-first closure
    G = make()
    els = old_elements(make(), ENUM_CAP)
    for n in orders:
        want = next(h for h in els if Perm(h).order() == n)
        assert element_of_order(G, n).images == want
    assert G._elements is None


@pytest.mark.parametrize("q, ambient", [(8, "psl"), (8, "pgammal"), (32, "psl")])
def test_torus_coset_action_is_built_on_the_closure_order_element(q, ambient):
    # the torus element is the first of its order in the Python closure, and
    # the action built from it is the package's, generator for generator
    A, G, _ = permcore._projective_group(q, ambient)
    t = next(Perm(h) for h in old_elements(G, ENUM_CAP)
             if Perm(h).order() == q + 1)
    want = CosetAction(A, normalizer_of_cyclic(A, t)).group.gens
    act, _ = psl2_torus_coset_action(q, ambient)
    assert [g.images for g in act.group.gens] == [g.images for g in want]


def test_torus_coset_action_never_enumerates_psl2_32():
    act, G = psl2_torus_coset_action(32, "psl")
    assert act.A._elements is None and G._elements is None


class SchoolbookGF(SmallGF):
    """The field with schoolbook polynomial arithmetic and Fermat inverses,
    no tables: the oracle of `SmallGF`'s lookups. Its generator is the first
    element, in `elements()` order, whose (q-1)/d-th power is not one for
    any prime divisor d of q - 1."""

    def __init__(self, p, k):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = None if k == 1 else permcore._GF_MODULI[(p, k)]
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

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
        assert n >= 0
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
                   for d in permcore.prime_divisors(self.q - 1)):
                return x
        raise RuntimeError("no generator found")


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


_FIELDS = sorted(permcore._GF_MODULI) + [(p, 1) for p in (2, 3, 5, 7, 11, 13)]


@pytest.mark.parametrize("p, k", _FIELDS, ids=[f"GF({p}^{k})" for p, k in _FIELDS])
def test_field_tables_match_schoolbook_arithmetic(p, k):
    F, oracle = SmallGF(p, k), SchoolbookGF(p, k)
    els = F.elements()
    assert els == oracle.elements()
    assert F.multiplicative_generator() == oracle.multiplicative_generator()
    for x in els:  # every pair, zero operands included
        assert [F.mul(x, y) for y in els] == [oracle.mul(x, y) for y in els]
        assert F.frobenius(x) == oracle.frobenius(x)
        assert [F.power(x, n) for n in range(2 * F.q)] == \
            [oracle.power(x, n) for n in range(2 * F.q)]
        if x != F.zero:
            assert F.inv(x) == oracle.inv(x)
    assert F.power(F.zero, 0) == F.one  # exponent 0, zero base included
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_small_gf_power_takes_negative_exponents():
    # x^(-k) is inv(x)^k; this call once looped for ever, as n >>= 1 stays -1
    F8 = SmallGF(2, 3)
    assert F8.power((0, 1, 0), -1) == F8.inv((0, 1, 0)) == (1, 0, 1)
    for F in (F8, SmallGF(3, 2), SmallGF(7, 1)):
        for x in F.elements()[1:]:
            for n in range(1, 2 * F.q):
                assert F.power(x, -n) == F.power(F.inv(x), n)
                assert F.mul(F.power(x, -n), F.power(x, n)) == F.one
        for n in (-1, -F.q):
            with pytest.raises(ZeroDivisionError):
                F.power(F.zero, n)


_AMBIENTS = [(8, "psl"), (8, "pgammal"), (9, "psl"), (9, "m10"), (16, "psl"),
             (27, "psl"), (32, "psl"), (32, "pgammal")] + [
    (q, "psl") for q in (5, 7, 11, 13, 25)]


@pytest.mark.parametrize("q, ambient", _AMBIENTS,
                         ids=[f"{a}({q})" for q, a in _AMBIENTS])
def test_projective_group_is_the_same_with_schoolbook_fields(
        monkeypatch, q, ambient):
    got = [[g.images for g in H.gens]
           for H in permcore._projective_group(q, ambient)[:2]]
    monkeypatch.setattr(permcore, "SmallGF", SchoolbookGF)
    A, G, line = permcore._projective_group(q, ambient)
    assert type(line.gf) is SchoolbookGF
    assert got == [[g.images for g in H.gens] for H in (A, G)]


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


def test_coset_action_and_group_caps_refuse_before_any_work(monkeypatch):
    def no_work(M):
        raise AssertionError("the coset search started")

    monkeypatch.setattr(permcore, "right_coset_keys", no_work)
    S8 = PermGroup(8, [Perm([1, 0] + list(range(2, 8))),
                       Perm(list(range(1, 8)) + [0])])
    # index 40320 over the trivial group
    with pytest.raises(CapExceeded, match="index 40320"):
        CosetAction(S8, PermGroup(8, []))
    C4 = PermGroup(8, [Perm([1, 2, 3, 0, 4, 5, 6, 7])])
    with pytest.raises(NotASubgroup):
        CosetAction(C4, PermGroup(8, [Perm([0, 1, 2, 3, 5, 4, 6, 7])]))
    with pytest.raises(CapExceeded, match="degree 4097"):
        PermGroup(permcore.DEGREE_CAP + 1, [list(range(4097))])


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
        assert len(lvl.table) == len(lvl.forward) == len(lvl.orbit) \
            == len(set(lvl.orbit))
        off = sorted(set(range(G.degree)) - set(lvl.orbit))
        assert list(lvl.position[off]) == [-1] * len(off)
        for k, pt in enumerate(lvl.orbit):
            assert lvl.position[pt] == k
            assert sorted(lvl.table[k].tolist()) == list(range(G.degree))
            assert lvl.table[k][pt] == lvl.base_point
            assert lvl.forward[k][lvl.base_point] == pt
            # the row of forward[k] * table[k] is table[k] gathered at forward[k]
            assert lvl.table[k][lvl.forward[k]].tolist() == list(range(G.degree))


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


@st.composite
def _group_and_rows(draw):
    """A group of degree 1..6 (trivial when it has no generators) and up to
    12 rows: some of its elements, mixed with random permutations."""
    n = draw(st.integers(1, 6))
    gens = [draw(st.permutations(range(n))) for _ in range(draw(st.integers(0, 3)))]
    closure = sorted(brute_force_closure(n, [Perm(g) for g in gens]))
    rows = draw(st.lists(st.one_of(st.sampled_from(closure),
                                   st.permutations(range(n))), max_size=12))
    return PermGroup(n, gens), closure, rows


@given(_group_and_rows())
@settings(max_examples=150, deadline=None)
def test_first_outside_is_the_first_row_outside_the_closure(case):
    G, closure, rows = case
    members = set(closure)
    want = next((i for i, r in enumerate(rows) if tuple(r) not in members), -1)
    block = np.array(rows, dtype=np.uint16).reshape(len(rows), G.degree)
    assert G.first_outside(block) == want
    assert [G.contains(Perm(r)) for r in rows] == \
        [tuple(r) in members for r in rows]
    # blocks of one row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permcore, "_SIFT", 1)
        assert G.first_outside(block) == want


def test_first_outside_of_the_trivial_group_and_of_no_rows():
    trivial = PermGroup(4, [])
    rows = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [1, 0, 2, 3]], dtype=np.uint16)
    assert trivial.first_outside(rows) == 2
    assert trivial.first_outside(rows[:2]) == -1
    assert trivial.first_outside(rows[:0]) == -1
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    assert S4.first_outside(rows[:0]) == -1
    with pytest.raises(DegreeMismatch):
        S4.first_outside(np.zeros((0, 5), dtype=np.uint16))


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
    keys = right_coset_keys(M)
    rng = random.Random(3)
    els = A.elements()

    def rows(gs):
        return np.array([g.images for g in gs], dtype=np.uint16)

    for r in rng.sample(els, 20):
        [k] = keys(rows([r]))
        coset = rows([m * r for m in M.elements()])
        assert k in {row.tobytes() for row in coset}
        assert keys(coset) == [k] * len(coset)


def old_right_coset_key(M):
    """The one-row descent of M's chain: r -> the key of the coset M*r."""
    M._build_chain()
    levels = [(np.array(lvl.orbit), lvl.forward) for lvl in M._chain]

    def key(r):
        for orbit, forward in levels:
            k = r[orbit].argmin()
            if k:
                r = r[forward[k]]
        return r.tobytes()

    return key


def old_row_coset_action(A, M):
    """The breadth-first coset search one row at a time: (reps as rows, the
    label of each key in order of discovery, per generator of A the labels
    of reps[i] * g)."""
    key = old_right_coset_key(M)
    gens = np.array([g.images for g in A.gens], dtype=np.uint16)
    reps = [np.arange(A.degree, dtype=np.uint16)]
    index_of = {key(reps[0]): 0}
    images = [[] for _ in A.gens]
    i = 0
    while i < len(reps):
        r = reps[i]
        for g, row in zip(gens, images):
            w = g[r]
            c = key(w)
            j = index_of.get(c)
            if j is None:
                j = index_of[c] = len(reps)
                reps.append(w)
            row.append(j)
        i += 1
    return reps, list(index_of.items()), images


# name -> (the degree of A, the action)
_KEYED = {
    "pgammal2(8)-torus": (9, lambda: psl2_torus_coset_action(8, "pgammal")[0]),
    "psl2(32)-torus": (33, lambda: psl2_torus_coset_action(32, "psl")[0]),
    "m10-sylow2": (10, lambda: psl2_sylow2_coset_action(9, "m10")[0]),
}


@pytest.mark.parametrize("name", _KEYED)
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_coset_keys_and_action_match_the_one_row_descent(monkeypatch, name,
                                                         rows):
    """With `_SIFT` set to blocks of one or three rows of A's degree, the
    blocks split every frontier and every image."""
    degree, make = _KEYED[name]
    if rows is not None:
        monkeypatch.setattr(permcore, "_SIFT", rows * degree)
    act = make()
    assert act.A.degree == degree
    A, M = act.A, act.M
    key, keys = old_right_coset_key(M), right_coset_keys(M)
    rng = np.random.default_rng(5)
    rows = np.array([rng.permutation(A.degree) for _ in range(40)]
                    + [g.images for g in A.gens], dtype=np.uint16)
    assert keys(rows) == [key(r) for r in rows]
    assert keys(rows[:0]) == []

    reps, labels, images = old_row_coset_action(A, M)
    assert act._rows.tobytes() == np.array(reps).tobytes()
    assert list(act._canon_to_idx.items()) == labels
    assert [act.image(g).images for g in A.gens] == \
        [tuple(row) for row in images]
    assert [g.images for g in act.group.gens] == \
        [g.images for g in PermGroup(act.index, images).gens]


def test_coset_action_image_refuses_an_element_outside_a():
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    act = CosetAction(A4, PermGroup(4, []))
    assert act.index == 12
    with pytest.raises(NotASubgroup):
        act.image(Perm([1, 0, 2, 3]))


def test_coset_action_image_refuses_a_wrong_degree():
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    act = CosetAction(A4, PermGroup(4, []))
    with pytest.raises(DegreeMismatch):
        act.image(Perm([1, 0, 2, 3, 4]))
    with pytest.raises(DegreeMismatch):
        act.image(Perm([1, 0, 2]))


def test_coset_action_refuses_a_labelling_that_is_no_action(monkeypatch):
    """Keys of w^-1 label the left cosets, on which right multiplication does
    not act: for M = <(0 1 2)> in S4 the search still finds four cosets, but
    a generator's labels are no permutation, and CosetAction says so."""
    keys_of = permcore.right_coset_keys

    def left_coset_keys(M):
        keys = keys_of(M)
        return lambda w: keys(np.argsort(w, axis=1).astype(np.uint16))

    monkeypatch.setattr(permcore, "right_coset_keys", left_coset_keys)
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    with pytest.raises(AssertionError):
        CosetAction(S4, PermGroup(4, [Perm([1, 2, 0, 3])]))


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


def rank_order_elements(G):
    """The images of G's elements in rank order, composed in Python: the
    element of rank r maps p to u_0(u_1(...u_k(p))), u_i the forward row of
    level i at r's mixed-radix digit there, the last level's the least
    significant."""
    levels = [(len(lvl.orbit), lvl.forward.tolist()) for lvl in G._chain]
    out = []
    for r in range(G.order):
        images = list(range(G.degree))
        for size, forward in reversed(levels):
            r, digit = divmod(r, size)
            images = [forward[digit][p] for p in images]
        out.append(tuple(images))
    return out


def assert_elements_match_oracles(G, cap=ENUM_CAP):
    """G.elements() holds each element of the Python closure once, in the
    order of the Python rank decoding."""
    els = [e.images for e in G.elements()]
    assert len(set(els)) == len(els)
    assert set(els) == set(old_elements(G, cap))
    assert els == rank_order_elements(G)
    return els


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
    els = assert_elements_match_oracles(G)
    assert els[0] == Perm.identity(G.degree).images
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
    assert conjugates(ranks).shape == (len(G.gens), G.order)
    for s, got in zip(G.gens, conjugates(ranks)):
        conj = [s.inverse() * g * s for g in perms]
        assert got.tolist() == rank(np.array(
            [c.images for c in conj], dtype=np.uint16).reshape(rows.shape)).tolist()
    pre = perms[-1]
    assert rank(rows, pre).tolist() == rank(np.array(
        [(pre * g).images for g in perms], dtype=np.uint16).reshape(rows.shape)).tolist()


def old_conjugates(G):
    """`conjugates` of `_rank_space(G)` as a list with one array per
    generator s, each from its own `images` and `_rank` calls: the ranks of
    s^-1 g s, from the base images s(g(s^-1(b)))."""
    images, _, _ = permcore._rank_space(G)
    chain = G._chain
    base = [lvl.base_point for lvl in chain]
    gens = [(np.array(s.images), np.array(s.inverse().images)[base])
            for s in G.gens]
    return lambda ranks: [permcore._rank(chain, s[images(ranks, pre)])
                          for s, pre in gens]


def _chi_ranks():
    """The 496-point torus action of PSL2(32) and the ranks of an element of
    order 2, one of order 3 and their conjugates by the generators, the
    first step of `chi_fixed_points`' class walk."""
    G = psl2_torus_coset_action(32)[0].group
    _, conjugates, rank = permcore._rank_space(G)
    ranks = rank(permcore._perm_rows(
        [element_of_order(G, 2), element_of_order(G, 3)], G.degree))
    return G, np.unique(np.concatenate([ranks, *conjugates(ranks)]))


@pytest.mark.parametrize("make", [
    lambda: (_s4(), None),
    lambda: (psl2_torus_coset_action(8)[0].group, None),
    lambda: (psl2(16)[0], None),
    _chi_ranks,
    lambda: (_chi_ranks()[0], None),
    lambda: (PermGroup(5, []), None),
    lambda: (PermGroup(0, []), None),
], ids=["s4", "psl2(8)-on-28", "psl2(16)", "chi-on-496", "psl2(32)-on-496",
        "no-generators", "degree-0"])
def test_batched_conjugates_match_one_call_per_generator(make):
    G, ranks = make()
    _, conjugates, _ = permcore._rank_space(G)
    oracle = old_conjugates(G)
    for r in (np.arange(G.order) if ranks is None else ranks,
              np.arange(min(G.order, 3)), np.arange(0)):
        got = conjugates(r)
        assert got.shape == (len(G.gens), len(r))
        assert got.tolist() == [c.tolist() for c in oracle(r)]


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
    assert_elements_match_oracles(G)
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
        assert len(assert_elements_match_oracles(make(), order)) == order
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
    assert_elements_match_oracles(D)
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
    assert_elements_match_oracles(G)
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


@given(_groups())
@example(_c7_wr_c4())
@settings(max_examples=60, deadline=None)
def test_chain_matches_python_schreier_sims_in_blocks_of_any_size(G):
    """Blocks of 1 to 5 rows put each refused Schreier generator at many
    positions of its block; the chain and the verification states stay the
    oracle's."""
    for rows in range(1, 6):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permcore, "_SIFT", rows * max(1, G.degree))
            _assert_chain_matches_python_schreier_sims(G.gens, G.degree)


def _assert_marks_hold(build):
    """Every Schreier generator the build has marked verified sifts to the
    identity through the chain as it stands, by Perm arithmetic on the
    tables; an orbit-tree edge's is the identity itself."""
    chain = build.chain
    for i, states in enumerate(build.states):
        lvl = chain[i]
        for s, pt in zip(*np.nonzero(states)):
            u = Perm(lvl.forward[lvl.position[pt]].tolist())
            g = build.gens[s]
            h = u * g * Perm(lvl.table[lvl.position[g(int(pt))]].tolist())
            if states[s, pt] == permcore._EDGE:
                assert h.is_identity()
            for deeper in chain[i + 1:]:
                k = deeper.position[h(deeper.base_point)]
                assert k >= 0
                h = h * Perm(deeper.table[k].tolist())
            assert h.is_identity()


@given(_groups())
@example(_c7_wr_c4())
@settings(max_examples=60, deadline=None)
def test_verified_marks_hold_after_every_level_verified(G):
    """A Schreier generator is marked verified only once it sifts to the
    identity: the refused one of a block is not, until a later pass."""
    verify = permcore._SchreierSims._verify_level

    def checked(self, i):
        stored = verify(self, i)
        _assert_marks_hold(self)
        return stored

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permcore._SchreierSims, "_verify_level", checked)
        permcore._SchreierSims(G.degree, G.gens)


def _coset_product(chain, levels, positions, n):
    """F_k[p_k] * .. * F_j[p_j] over the levels j..k given, the deepest
    applied first: the row whose sift from level j reads these
    positions."""
    row = np.arange(n, dtype=np.uint16)
    for j, p in zip(reversed(levels), reversed(positions)):
        row = chain[j].forward[p % len(chain[j].orbit)][row]
    return row


def _refused_rows(chain, n):
    """(start level i, level j, residue r, row) for rows outside the group of
    a complete chain: row = r * u, where u is a product of coset
    representatives of levels i..j-1 at nonzero positions, and r either
    swaps b_j with a point off level j's orbit that is no base point above
    it (a row stuck at a deeper level, j > i) or swaps two points that are
    no base points (a row fixing every base point, not the identity, j =
    len(chain)). A sift from level i reads u's positions, then leaves r at
    level j."""
    bases = [lvl.base_point for lvl in chain]
    out = []
    for j in range(1, len(chain) + 1):
        if j < len(chain):
            off = [x for x in range(n)
                   if chain[j].position[x] < 0 and x not in bases[:j]]
            pair = (bases[j], off[0]) if off else None
        else:
            free = [x for x in range(n) if x not in bases]
            pair = tuple(free[:2]) if len(free) > 1 else None
        if pair is None:
            continue
        r = np.arange(n, dtype=np.uint16)
        r[list(pair)] = pair[::-1]
        for i in range(j):
            u = _coset_product(chain, range(i, j), [1] * (j - i), n)
            out.append((i, j, r, u[r]))
    return out


def _assert_first_refused_at_every_position(G):
    """Each refused row of `_refused_rows`, put at every position of a block
    of rows in G that fix the base points above its start level, is the
    first refused, with its level and residue; from level 0 also in blocks
    of any size, and `_sift_each` stores its residue at that level. Returns
    which kinds of refused row G has: True for one fixing every base
    point."""
    n = G.degree
    G._build_chain()
    chain = G._chain
    cases = _refused_rows(chain, n)
    for i, j, r, row in cases:
        members = [_coset_product(chain, range(i, len(chain)),
                                  [t + 1] * (len(chain) - i), n)
                   for t in range(4)]
        for k in range(len(members) + 1):
            block = np.array(members[:k] + [row] + members[k:],
                             dtype=np.uint16)
            f, level, residue = permcore._sift(chain, i, block)
            assert (f, level, residue.tolist()) == (k, j, r.tolist())
            if i:
                continue
            for rows in range(1, len(block) + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(permcore, "_SIFT", rows * n)
                    assert G.first_outside(block) == k
            build = permcore._SchreierSims(n, G.gens)
            ok = build._sift_each(0, block)
            assert ok.tolist() == [x != k for x in range(len(block))]
            assert build.gens[-1].images == tuple(r.tolist())
            assert build.chain[j].gens[-1] is build.gens[-1]
    return {j == len(chain) for _, j, _, _ in cases}


@given(_groups())
@settings(max_examples=100, deadline=None)
def test_sift_finds_the_first_refused_row_at_every_position(G):
    _assert_first_refused_at_every_position(G)


@pytest.mark.parametrize("name", ["c7-wr-c4", "s3-wreath-c3-A",
                                  "psl2(8)-torus"])
def test_sift_finds_stuck_and_base_fixing_rows_at_every_position(name):
    """Named groups with both kinds of refused row: one stuck at a level
    below the first and one that fixes every base point."""
    assert _assert_first_refused_at_every_position(_NAMED[name]()) == \
        {False, True}


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
    """The same elements as the oracle's, generated by at most log2 |N| of
    them: each generator taken at least doubles the order."""
    seen = set()
    for name, G, g in _normalizer_cases():
        seen.add(name)
        N = normalizer_of_cyclic(G, g)
        # the oracle's generators are its elements but the identity
        want = {h.images for h in old_normalizer_of_cyclic(G, g).gens}
        assert {h.images for h in N.elements()} == \
            want | {Perm.identity(G.degree).images}, name
        assert 2 ** len(N.gens) <= N.order, name
    assert seen == {"psl2(8)", "psl2(9)", "psl2(16)", "pgammal2(8)", "s4",
                    "gf16", "m10-sylow2"}


def test_normalizer_of_cyclic_is_the_same_in_chunks_of_one_row(monkeypatch):
    """The same elements in the same search order, and so the same
    generators."""
    cases = list(_normalizer_cases())
    want = [(permcore._normalizer_rows(G, g).tolist(),
             [h.images for h in normalizer_of_cyclic(G, g).gens])
            for _, G, g in cases]
    monkeypatch.setattr(permcore, "_CHUNK", 1)
    for (name, G, g), (rows, gens) in zip(cases, want):
        assert permcore._normalizer_rows(G, g).tolist() == rows, name
        assert [h.images for h in normalizer_of_cyclic(G, g).gens] == gens, name


def test_normalizer_generators_are_taken_greedily_in_search_order():
    # each generator is the first element found outside the group the ones
    # before it generate
    for name, G, g in _normalizer_cases():
        rows = [tuple(r) for r in permcore._normalizer_rows(G, g).tolist()]
        gens, closure = [], {Perm.identity(G.degree).images}
        for r in rows:
            if r not in closure:
                gens.append(r)
                closure = brute_force_closure(G.degree, [Perm(h) for h in gens])
        assert [h.images for h in normalizer_of_cyclic(G, g).gens] == gens, name
        assert len(closure) == len(rows), name


@pytest.mark.parametrize("drop", [0, 1, -1], ids=["first", "second", "last"])
def test_normalizer_of_cyclic_checks_the_order(monkeypatch, drop):
    # a search that loses one element is caught: the generators taken from
    # the rest still generate all of N
    G, _ = psl2(8)
    t = element_of_order(G, 9)
    search = permcore._normalizer_rows
    assert len(search(G, t)) == 18
    monkeypatch.setattr(permcore, "_normalizer_rows",
                        lambda G, g: np.delete(search(G, g), drop, axis=0))
    with pytest.raises(AssertionError, match="found 17 elements"):
        normalizer_of_cyclic(G, t)


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
