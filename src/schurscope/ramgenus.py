"""Riemann-Hurwitz index and genus computations, classification of
ramification types by angle sum, and the search for genus-0 generating
systems in a permutation group."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .permcore import (
    CapExceeded,
    Perm,
    PermGroup,
    _class_labels,
    _perms,
    _rank_space,
    conjugacy_classes,  # noqa: F401  perfbench/tracer.py patches ramgenus.conjugacy_classes
)

GROUP_ORDER_CAP = 40_000
DEGREE_CAP_SEARCH = 1300


def ind(sigma):
    """Index of a permutation: degree minus number of cycles."""
    return sigma.degree - sigma.num_cycles()


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


def regular_genus(ram_type, group_order):
    """Genus of the Galois closure cover: solves
    2(|G| - 1 + g) = |G| * sum(1 - 1/e_i)."""
    if group_order < 2:
        raise ValueError("group order must be at least 2")
    if len(ram_type) < 2 or any(e < 2 for e in ram_type):
        raise ValueError("ramification type needs r >= 2 entries, all >= 2")
    s = sum(Fraction(1) - Fraction(1, e) for e in ram_type)
    g = Fraction(group_order) * s / 2 - group_order + 1
    if g.denominator != 1 or g < 0:
        raise ValueError(f"type {ram_type} with order {group_order} "
                         f"gives non-integral or negative genus {g}")
    return int(g)


SUB_EUCLIDEAN_CASES = ("(n,n)", "(2,2,k)", "(2,3,3)", "(2,3,4)", "(2,3,5)")


def classify_type(ram_type):
    """Classify by the angle sum sum(1 - 1/e_i) against 2.

    Returns (kind, case) with kind in {"sub-Euclidean", "Euclidean",
    "hyperbolic"}; case names the matching spherical family for
    sub-Euclidean types and is None otherwise.
    """
    t = tuple(sorted(ram_type))
    if len(t) < 2 or any(e < 2 for e in t):
        raise ValueError("ramification type needs r >= 2 entries, all >= 2")
    s = sum(Fraction(1) - Fraction(1, e) for e in t)
    if s > 2:
        return "hyperbolic", None
    if s == 2:
        return "Euclidean", None
    if len(t) == 2:
        case = "(n,n)"  # t[0] == t[1] forced by the angle condition
    elif t[:2] == (2, 2):
        case = "(2,2,k)"
    else:
        case = f"(2,3,{t[2]})"
    if case not in SUB_EUCLIDEAN_CASES:
        raise AssertionError(f"unexpected sub-Euclidean type {t}")
    return "sub-Euclidean", case


# ---------------------------------------------------------------------------
# genus-0 system search

def _class_multisets(class_data, budget, r_max):
    """Multisets (by class id) of 2..r_max classes with index sum == budget."""
    out = []
    k = len(class_data)

    def rec(start, chosen, remaining):
        if len(chosen) >= 2 and remaining == 0:
            out.append(list(chosen))
        if len(chosen) == r_max:
            return
        for i in range(start, k):
            idx = class_data[i][1]
            if idx > remaining:
                continue
            chosen.append(i)
            rec(i, chosen, remaining - idx)
            chosen.pop()

    rec(0, [], budget)
    return out


def _has_product_one_generating_tuple(G, multiset, sizes, members, closers):
    """Backtracking search over one ordering of the class multiset.

    The first element is pinned to a class representative, the least of its
    class in lexicographic order (conjugation symmetry); the last is forced
    as the inverse of the partial product and checked against its class;
    orderings are interchangeable by braid moves. members(i) gives the
    elements of class i as uint16 rows and as Perms, both in lexicographic
    order, and closers(i, pre, rows) the mask of the rows c with
    (pre * c)^-1 in class i.
    """
    # place the largest class last (forced position), second largest first
    ms = sorted(multiset, key=sizes.__getitem__)
    last = ms.pop()
    rows, perms = members(ms.pop())
    n = G.degree
    target = G.order

    def close(prefix, partial, rows, perms):
        """Try each c of perms whose closer (partial * c)^-1 lies in the last
        class as the last free entry, in order."""
        for k in np.flatnonzero(closers(last, partial, rows)).tolist():
            c = perms[k]
            if PermGroup(n, prefix + [c, (partial * c).inverse()]).order == target:
                return True
        return False

    if not ms:
        # r == 2: the tuple is (rep, rep^-1)
        return close([], Perm.identity(n), rows[:1], perms[:1])
    rep = perms[0]
    middles = [members(i) for i in ms]

    def rec(pos, prefix, partial):
        rows, perms = middles[pos]
        if pos + 1 == len(middles):
            return close(prefix, partial, rows, perms)
        return any(rec(pos + 1, prefix + [c], partial * c) for c in perms)

    return rec(0, [rep], rep)


def genus0_search(G, r_max=5):
    """All ramification types (e_1..e_r), r <= r_max, admitting a product-one
    generating tuple of permutation genus 0 in the transitive group G.

    The conjugacy classes are labelled on the ranks of G's chain, and each
    is read from one representative, its least-rank element. Candidate
    class multisets are cut by the exact index budget sum ind = 2(n-1); each
    is then searched by backtracking over class elements with the last entry
    forced, which is tested by the class label of its inverse's rank. The
    Perms of a class are made only when a multiset searched uses it.
    """
    if G.degree > DEGREE_CAP_SEARCH:
        raise CapExceeded(f"degree {G.degree} exceeds {DEGREE_CAP_SEARCH}")
    if G.order > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {G.order} exceeds {GROUP_ORDER_CAP}")
    if not G.is_transitive():
        raise ValueError("G must be transitive")
    n = G.degree
    budget = 2 * (n - 1)
    images, conjugates, rank = _rank_space(G)
    labels, first, sizes = _class_labels(G, conjugates)
    points = np.arange(n)
    # the non-identity classes, numbered from 0: class i has label i + 1
    rep_rows = images(first[1:], points)
    reps = _perms([rep_rows], n, [])
    # the label of the class of each representative's inverse
    inverse = np.empty_like(rep_rows)
    inverse[np.arange(len(reps))[:, None], rep_rows] = points
    inverse = labels[rank(inverse)]
    found_members = {}

    def members(i):
        if i not in found_members:
            rows = images(np.flatnonzero(labels == i + 1), points)
            perms = _perms([rows], n, [])
            order = sorted(range(len(perms)), key=lambda k: perms[k].images)
            found_members[i] = rows[order], [perms[k] for k in order]
        return found_members[i]

    def closers(i, pre, rows):
        # (pre * c)^-1 lies in class i exactly when pre * c lies in the class
        # of rep_i^-1
        return labels[rank(rows, pre)] == inverse[i]

    class_data = [(i, ind(rep)) for i, rep in enumerate(reps)]
    found = set()
    for ms in _class_multisets(class_data, budget, r_max):
        ram_type = tuple(sorted(reps[i].order() for i in ms))
        if ram_type in found:
            continue
        if _has_product_one_generating_tuple(G, ms, sizes[1:], members, closers):
            found.add(ram_type)
    return sorted(found)
