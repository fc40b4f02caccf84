"""Common-orbit exceptionality tests, coset averages, and the example
constructions (wreath diagonal and affine scalar)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from schurscope import exceptio, permcore
from schurscope.exceptio import (
    NotNormal,
    NotTransitive,
    build_scalar_example,
    build_wreath_diagonal_example,
    chi_fixed_points,
    common_orbits,
    coset_average_fixed_points,
    coset_verdicts,
    excomp_decompose,
    is_arithmetically_exceptional,
    is_exceptional,
)
from schurscope.permcore import (
    CapExceeded,
    CosetAction,
    DegreeMismatch,
    NotASubgroup,
    Perm,
    PermGroup,
    orbits_on_pairs,
    psl2_sylow2_coset_action,
    psl2_torus_coset_action,
)


def s_n(n):
    return PermGroup(n, [Perm([1, 0] + list(range(2, n))),
                         Perm(list(range(1, n)) + [0])])


S3 = s_n(3)
C3 = PermGroup(3, [Perm([1, 2, 0])])
S4 = s_n(4)
A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
C4 = PermGroup(4, [Perm([1, 2, 3, 0])])
D4 = PermGroup(4, [Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1])])


def test_is_exceptional_small_instances():
    v = is_exceptional(S3, C3)
    assert v.exceptional and v.r == 1 and v.witness is None
    v = is_exceptional(S4, A4)
    assert not v.exceptional and v.r == 2
    a, b = v.witness
    assert a != b
    # (D4, C4): the antipodal pair orbit is common
    v = is_exceptional(D4, C4)
    assert not v.exceptional
    assert v.witness == (0, 2)


def test_common_orbits_diagonal_always_present():
    for A, G in ((S3, C3), (S4, A4), (D4, C4), (S4, S4)):
        reps = common_orbits(A, G)
        assert reps[0] == (0, 0)


def test_common_orbits_equal_groups_is_rank():
    # with A = G every orbit is common, so the count is the rank
    assert len(common_orbits(S4, S4)) == 2
    assert len(common_orbits(C4, C4)) == 4


def test_not_normal_and_not_transitive_raise():
    C2 = PermGroup(3, [Perm([1, 0, 2])])
    with pytest.raises(NotNormal):
        is_exceptional(S3, C2)  # not normal
    V = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    with pytest.raises(NotTransitive):
        is_exceptional(PermGroup(4, V.gens), V)


def test_coset_average_equals_common_orbit_count():
    # the average of squared fixed-point counts over a coset xG equals the
    # number of common orbits of (<G, x>, G) on pairs
    for A, G in ((S4, A4), (S3, C3), (D4, C4)):
        for x in CosetAction(A, G).reps:
            B = PermGroup(A.degree, list(G.gens) + [x])
            avg = coset_average_fixed_points(A, G, x)
            assert avg == len(common_orbits(B, G))


def test_coset_average_known_values():
    x = Perm([1, 0, 2, 3])  # transposition coset of A4 in S4
    assert coset_average_fixed_points(S4, A4, x) == 2
    y = Perm([1, 0, 2])
    assert coset_average_fixed_points(S3, C3, y) == 1


def old_coset_average_fixed_points(G, x):
    """(1/|G|) * sum over g in G of fix(x*g)^2, each x*g a Perm product."""
    els = G.elements()
    return Fraction(sum(len((x * g).fixed_points()) ** 2 for g in els),
                    len(els))


def test_coset_average_matches_perm_products():
    S3_ = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    act28, G8 = psl2_torus_coset_action(8, "pgammal")
    wreath_a, wreath_g, _ = build_wreath_diagonal_example(S3_, 3)
    pairs = [(S4, A4), (D4, C4),
             (act28.group, act28.image_group(G8)), (wreath_a, wreath_g)]
    for A, G in pairs:
        for x in CosetAction(A, G).reps:
            assert coset_average_fixed_points(A, G, x) == \
                old_coset_average_fixed_points(G, x)


def test_coset_average_keeps_the_enum_cap(monkeypatch):
    x = Perm([1, 0, 2, 3])
    monkeypatch.setattr(permcore, "ENUM_CAP", A4.order - 1)
    with pytest.raises(CapExceeded):
        coset_average_fixed_points(S4, A4, x)
    monkeypatch.setattr(permcore, "ENUM_CAP", A4.order)
    assert coset_average_fixed_points(S4, A4, x) == 2


def test_arithmetic_exceptionality_small():
    # (S3, C3): the reflection coset works
    v = is_arithmetically_exceptional(S3, C3)
    assert v.arithmetically_exceptional and v.witness not in C3
    # (S4, A4): only one nontrivial coset and it fails
    assert not is_arithmetically_exceptional(S4, A4).arithmetically_exceptional


def test_arithmetic_exceptionality_psl28():
    act, G8 = psl2_torus_coset_action(8, "pgammal")
    A = act.group
    G = PermGroup(A.degree, [act.image(g) for g in G8.gens])
    assert is_exceptional(A, G).exceptional  # A/G is cyclic of order 3
    v = is_arithmetically_exceptional(A, G)
    assert v.arithmetically_exceptional
    # the witness coset element has order a power of 3 (field automorphism)
    assert v.witness.order() % 3 == 0


def test_arithmetic_search_keeps_the_index_cap(monkeypatch):
    act, G8 = psl2_torus_coset_action(8, "pgammal")
    A, G = act.group, act.image_group(G8)  # [A : G] = 3
    coset_action, built = exceptio.CosetAction, []
    monkeypatch.setattr(exceptio, "CosetAction",
                        lambda A, M: built.append(M) or coset_action(A, M))
    monkeypatch.setattr(exceptio, "INDEX_CAP", 2)
    with pytest.raises(CapExceeded, match="index 3 exceeds cap 2"):
        is_arithmetically_exceptional(A, G)
    assert built == []  # refused before any coset is built
    monkeypatch.setattr(exceptio, "INDEX_CAP", 3)
    v = is_arithmetically_exceptional(A, G)
    assert v.arithmetically_exceptional and v.witness not in G


def test_chi_fixed_points_matches_direct_count():
    act, _ = psl2_torus_coset_action(8, "psl")
    G = act.group
    H = PermGroup(G.degree, G.stabilizer_gens(0))
    for g in (G.gens[0], G.gens[0] * G.gens[-1]):
        assert chi_fixed_points(G, H, g) == len(g.fixed_points())


def test_chi_fixed_points_needs_g_in_g():
    act, _ = psl2_torus_coset_action(8, "psl")
    G = act.group
    H = PermGroup(G.degree, G.stabilizer_gens(0))
    # PSL2(8) is simple, so it lies in the alternating group: no transposition
    x = Perm([1, 0] + list(range(2, G.degree)))
    with pytest.raises(NotASubgroup):
        chi_fixed_points(G, H, x)
    # H conjugated by x is the stabilizer of x(0) in a conjugate of G, not in G
    H_x = PermGroup(G.degree, [x * h * x for h in H.gens])
    with pytest.raises(NotASubgroup):
        chi_fixed_points(G, H_x, G.gens[0])


@pytest.mark.parametrize("order, off", [(2, 1), (3, -1)])
def test_chi_fixed_points_rejects_wrong_h_class_sizes(monkeypatch, order, off):
    # the H-class sizes, off by one, must change the class formula: with
    # |C_G(g)| = 8, |H| = 18 and an H-class of 9 involutions, 8 // (18 // 10)
    # is not 4; with |C_G(g)| = 9 and an H-class of 2 elements of order 3,
    # 9 // (18 // 1) is not 1 (9 // (18 // 3) still is)
    act, _ = psl2_torus_coset_action(8, "psl")
    G = act.group
    H = PermGroup(G.degree, G.stabilizer_gens(0))
    g = {2: G.gens[0], 3: G.gens[0] * G.gens[-1]}[order]
    assert g.order() == order
    labels_of = exceptio._class_labels

    def off_by_one(group, conjugates):
        labels, first, sizes = labels_of(group, conjugates)
        return labels, first, sizes + off

    monkeypatch.setattr(exceptio, "_class_labels", off_by_one)
    with pytest.raises(AssertionError):
        chi_fixed_points(G, H, g)


def test_wreath_example_small():
    C2 = PermGroup(2, [Perm([1, 0])])
    # gcd(t, |L|) = 1 -> exceptional
    A, G, act = build_wreath_diagonal_example(C2, 3)
    assert A.degree == 4  # |L|^(t-1)
    assert is_exceptional(A, G).exceptional
    # gcd(2, 2) > 1 -> not exceptional
    A, G, _ = build_wreath_diagonal_example(C2, 2)
    assert not is_exceptional(A, G).exceptional


def test_wreath_s3_t2_not_exceptional():
    A, G, _ = build_wreath_diagonal_example(S3, 2)
    assert A.degree == 6
    assert not is_exceptional(A, G).exceptional


def test_scalar_example():
    # V = F_5, H trivial, scalar of order 2: A = D5, G = C5
    A, G = build_scalar_example(5, 1, [], 2)
    assert A.degree == 5 and A.order == 10 and G.order == 5
    assert is_exceptional(A, G).exceptional
    # order-4 scalar: Frobenius group of order 20
    A, G = build_scalar_example(5, 1, [], 4)
    assert A.order == 20
    assert is_exceptional(A, G).exceptional


def test_scalar_example_preconditions():
    with pytest.raises(ValueError):
        build_scalar_example(5, 1, [], 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        build_scalar_example(5, 1, [], 1)
    # H containing an element of order r is rejected
    with pytest.raises(ValueError):
        build_scalar_example(5, 2, [[[0, 1], [1, 0]]], 2)


def test_excomp_decompose_consistency():
    M = PermGroup(4, [Perm([1, 0, 2, 3])])
    U = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    v1, v2, v3 = excomp_decompose(S4, A4, M, U)
    assert v1 == (v2 and v3)


def test_pair_cap_refused_before_any_chain_is_built():
    A, G = build_scalar_example(2003, 1, [], 2)
    with pytest.raises(CapExceeded, match="pairs exceed cap"):
        is_exceptional(A, G)
    assert A._chain is None and G._chain is None


def test_degree_mismatch_checked_before_pair_cap():
    A, _ = build_scalar_example(2003, 1, [], 2)
    with pytest.raises(DegreeMismatch):
        common_orbits(A, C3)
    assert A._chain is None


def old_common_orbits(A, G):
    """Sort the pairs by A-label and walk each run of equal labels."""
    n = A.degree
    g_orbs = orbits_on_pairs(G.gens, n)
    a_orbs = orbits_on_pairs(A.gens, n)
    order = np.argsort(a_orbs.labels, kind="stable")
    al, gl = a_orbs.labels[order], g_orbs.labels[order]
    reps, start = [], 0
    while start < len(al):
        end = start
        while end < len(al) and al[end] == al[start]:
            end += 1
        if len(np.unique(gl[start:end])) == 1:
            reps.append(divmod(int(al[start]), n))
        start = end
    return sorted(reps)


def _relabelled(A, G, seed):
    rng = random.Random(seed)
    sigma = list(range(A.degree))
    rng.shuffle(sigma)
    s = Perm(sigma)
    s_inv = s.inverse()
    return (PermGroup(A.degree, [s_inv * g * s for g in A.gens]),
            PermGroup(G.degree, [s_inv * g * s for g in G.gens]))


def _walk_pairs():
    act, G8 = psl2_torus_coset_action(8, "pgammal")
    return [(S3, C3), (S4, A4), (D4, C4), (S4, S4), (C4, C4),
            build_wreath_diagonal_example(S3, 2)[:2],
            build_wreath_diagonal_example(S3, 3)[:2],
            (act.group, PermGroup(28, [act.image(g) for g in G8.gens]))]


def test_common_orbits_match_sorted_walk():
    for seed, (A, G) in enumerate(_walk_pairs()):
        for A_, G_ in ((A, G), _relabelled(A, G, seed)):
            reps = common_orbits(A_, G_)
            assert reps == old_common_orbits(A_, G_)
            v = is_exceptional(A_, G_)
            assert v.r == len(reps)
            assert v.exceptional == (len(reps) == 1)


def test_excomp_decompose_refuses_a_not_gm():
    # M and U inside A4, so GM = A4 is not all of S4
    M = PermGroup(4, [Perm([1, 2, 0, 3])])
    with pytest.raises(ValueError, match="A = GM fails"):
        excomp_decompose(S4, A4, M, A4)


def test_coset_verdicts_match_the_pair_engine_on_b():
    # the per-coset verdict against a chain and pair orbits of B = <G, x>
    for seed, (A, G) in enumerate(_walk_pairs()):
        for A_, G_ in ((A, G), _relabelled(A, G, seed)):
            verdicts = list(coset_verdicts(A_, G_))
            assert [x for x, _ in verdicts] == CosetAction(A_, G_).reps
            for x, v in verdicts:
                reps = old_common_orbits(
                    PermGroup(A_.degree, list(G_.gens) + [x]), G_)
                off = [p for p in reps if p[0] != p[1]]
                assert (v.r, v.witness) == (len(reps), off[0] if off else None)
                assert v.exceptional == (len(reps) == 1)


def old_coset_representatives(A, G):
    """Right-coset representatives of G in A, identity first: breadth first
    under right multiplication by A's generators, a candidate kept when it
    lies in no coset found so far."""
    index = A.order // G.order
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


def test_coset_action_reps_match_breadth_first_search():
    deg28 = psl2_torus_coset_action(8, "pgammal")
    deg45 = psl2_sylow2_coset_action(9, "m10")
    pairs = [(S4, A4), (S3, C3), (D4, C4)]
    for act, G0 in (deg28, deg45):
        pairs.append((act.group, PermGroup(act.group.degree,
                                           [act.image(g) for g in G0.gens])))
    for A, G in pairs:
        reps = CosetAction(A, G).reps
        assert reps == old_coset_representatives(A, G)
        assert reps[0].is_identity() and len(reps) == A.order // G.order
        assert all(x not in G for x in reps[1:])


def test_arithmetic_verdict_builds_only_the_chains_of_a_and_g(monkeypatch):
    act, G8 = psl2_torus_coset_action(8, "pgammal")
    A = act.group
    G = PermGroup(A.degree, [act.image(g) for g in G8.gens])
    built = []
    build_chain = PermGroup._build_chain

    def counting(self):
        if self._chain is None:
            built.append(self)
        return build_chain(self)

    monkeypatch.setattr(PermGroup, "_build_chain", counting)
    v = is_arithmetically_exceptional(A, G)
    assert v.arithmetically_exceptional
    assert {id(H) for H in built} <= {id(A), id(G)}


def test_arithmetic_pair_cap_refused_before_any_chain_is_built():
    A, G = build_scalar_example(2003, 1, [], 2)
    with pytest.raises(CapExceeded, match="pairs exceed cap"):
        is_arithmetically_exceptional(A, G)
    assert A._chain is None and G._chain is None
