"""Index/genus arithmetic, ramification-type classification, and the genus-0
system search with a brute-force oracle on small groups."""

import itertools

import pytest

from schurscope import ramgenus
from schurscope.permcore import CapExceeded, Perm, PermGroup, psl2_torus_coset_action
from schurscope.ramgenus import (
    classify_type,
    genus0_search,
    ind,
    regular_genus,
)


def permutation_genus(sigmas, n):
    """Genus g of a cover with branch cycles sigmas on n points, from
    sum of indices = 2(n - 1 + g).  Raises if the data is inconsistent."""
    sigmas = list(sigmas)
    prod = Perm.identity(n)
    for s in sigmas:
        prod = prod * s
    if not prod.is_identity():
        raise ValueError("branch cycles must have product one")
    if not PermGroup(n, sigmas).is_transitive():
        raise ValueError("branch cycles must generate a transitive group")
    total = sum(ind(s) for s in sigmas)
    rem = total - 2 * (n - 1)
    if rem % 2 != 0 or rem < 0:
        raise ValueError(f"impossible index sum {total} for degree {n}")
    return rem // 2


def s_n(n):
    return PermGroup(n, [Perm([1, 0] + list(range(2, n))),
                         Perm(list(range(1, n)) + [0])])


def test_ind():
    assert ind(Perm([1, 0, 2])) == 1       # one transposition
    assert ind(Perm([1, 2, 0])) == 2       # 3-cycle
    assert ind(Perm.identity(5)) == 0
    assert ind(Perm([1, 0, 3, 2])) == 2    # (2,2)


def test_permutation_genus_known():
    # two transpositions and a 3-cycle on 3 points: genus 0
    x = Perm([1, 0, 2])
    y = Perm([0, 2, 1])
    z = (x * y).inverse()
    assert (x * y * z).is_identity()
    assert permutation_genus([x, y, z], 3) == 0


def test_permutation_genus_errors():
    x = Perm([1, 0, 2])
    with pytest.raises(ValueError):
        permutation_genus([x, x, x], 3)  # product is x, not identity
    y = Perm([1, 0, 2, 3])
    with pytest.raises(ValueError):
        permutation_genus([y, y], 4)  # intransitive


def test_regular_genus_exact_values():
    table = [
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
    for t, order, g in table:
        assert regular_genus(t, order) == g


def test_regular_genus_euclidean_and_errors():
    for t in ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)):
        for order in (6, 12, 60, 504):
            assert regular_genus(t, order) == 1
    with pytest.raises(ValueError):
        regular_genus((2, 3, 7), 100)  # non-integral genus
    with pytest.raises(ValueError):
        regular_genus((2,), 12)
    with pytest.raises(ValueError):
        regular_genus((1, 2), 12)


def test_classify_type():
    assert classify_type((7, 7)) == ("sub-Euclidean", "(n,n)")
    assert classify_type((2, 2, 5)) == ("sub-Euclidean", "(2,2,k)")
    assert classify_type((2, 3, 3)) == ("sub-Euclidean", "(2,3,3)")
    assert classify_type((3, 2, 4)) == ("sub-Euclidean", "(2,3,4)")
    assert classify_type((2, 3, 5)) == ("sub-Euclidean", "(2,3,5)")
    for t in ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)):
        assert classify_type(t) == ("Euclidean", None)
    assert classify_type((2, 3, 7)) == ("hyperbolic", None)
    assert classify_type((2, 2, 2, 2, 2)) == ("hyperbolic", None)


def brute_force_genus0_types(G, r_max):
    """All ramification types of product-one generating genus-0 tuples,
    by exhaustive enumeration.  Only viable for tiny groups."""
    els = [g for g in G.elements() if not g.is_identity()]
    budget = 2 * (G.degree - 1)
    found = set()
    for r in range(2, r_max + 1):
        for tup in itertools.product(els, repeat=r):
            if sum(ind(s) for s in tup) != budget:
                continue
            prod = Perm.identity(G.degree)
            for s in tup:
                prod = prod * s
            if not prod.is_identity():
                continue
            if PermGroup(G.degree, list(tup)).order != G.order:
                continue
            found.add(tuple(sorted(s.order() for s in tup)))
    return sorted(found)


def test_genus0_search_oracle_s3():
    S3 = s_n(3)
    assert genus0_search(S3, r_max=4) == brute_force_genus0_types(S3, 4)


def test_genus0_search_oracle_a4():
    A4 = PermGroup(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
    assert genus0_search(A4, r_max=3) == brute_force_genus0_types(A4, 3)


def test_genus0_search_oracle_d5():
    D5 = PermGroup(5, [Perm([1, 2, 3, 4, 0]), Perm([0, 4, 3, 2, 1])])
    assert genus0_search(D5, r_max=4) == brute_force_genus0_types(D5, 4)


def test_genus0_search_refuses_r_max_below_2():
    S4 = s_n(4)
    for r_max in (-3, 0, 1):
        with pytest.raises(ValueError, match="r_max must be >= 2"):
            genus0_search(S4, r_max=r_max)
    assert genus0_search(S4, r_max=2) == []
    assert (2, 3, 4) in genus0_search(S4, r_max=3)


def test_genus0_search_refuses_a_group_over_a_cap_before_any_work(monkeypatch):
    def no_work(G):
        raise AssertionError("the search started")

    monkeypatch.setattr(ramgenus, "_rank_space", no_work)
    S8 = s_n(8)
    assert S8.order == 40_320 > ramgenus.GROUP_ORDER_CAP
    with pytest.raises(CapExceeded, match="group order 40320"):
        genus0_search(S8)
    C1301 = PermGroup(1301, [Perm(list(range(1, 1301)) + [0])])
    assert C1301.degree > ramgenus.DEGREE_CAP_SEARCH
    with pytest.raises(CapExceeded, match="degree 1301"):
        genus0_search(C1301)


def test_genus0_search_psl28_degree28():
    act, _ = psl2_torus_coset_action(8, "psl")
    got = genus0_search(act.group)
    assert got == [(2, 2, 2, 3), (2, 3, 7), (2, 3, 9)]
