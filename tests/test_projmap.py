"""Projective-line evaluation, bijectivity, and prime sweeps."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurscope import projmap
from schurscope.cli import builtin_function
from schurscope.exactalg import (
    QQ,
    BadReduction,
    FpElem,
    FqField,
    Poly,
    QuadElem,
    RamifiedPlace,
    RatFunc,
    Reduced,
    poly_const,
    poly_x,
    primes_up_to,
    reduce_mod_place,
)
from schurscope.funfam import cm7_function
from schurscope.projmap import (
    PointCapExceeded,
    SweepRecord,
    SweepReport,
    is_bijective,
    schur_sweep,
    sweep_prime,
)

INF = object()  # the point at infinity of P^1, for the oracles


def _decode(F, i):
    """The point of P^1(F) at index i: the elements in the order of
    F.elements(), then INF at index q, in O(1)."""
    if i == F.order:
        return INF
    if F.ext == 1:
        return F.from_int(i)
    u, v = divmod(i, F.p)
    return QuadElem(FpElem(u, F.p), FpElem(v, F.p), F.r)


def eval_proj(f, x):
    """f at a point of P^1(F_q), x an element of F_q or INF: the
    point-by-point oracle of the array evaluator."""
    if x is INF:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return f.field.zero
        return f.num.coeffs[-1] / f.den.coeffs[-1]
    d = f.den.eval(x)
    if not d:
        return INF
    return f.num.eval(x) / d


def _over_fp(p, num_coeffs, den_coeffs):
    F = FqField(p)
    from schurscope.exactalg import Poly
    return RatFunc(Poly(F, [F.from_int(c) for c in num_coeffs]),
                   Poly(F, [F.from_int(c) for c in den_coeffs]))


def test_eval_proj_mobius():
    # (x+1)/(x-1) over F_7
    f = _over_fp(7, [1, 1], [-1, 1])
    F = f.field
    assert eval_proj(f, F.from_int(1)) is INF
    assert eval_proj(f, INF) == F.one
    assert eval_proj(f, F.from_int(0)) == F.from_int(-1)


def test_eval_proj_at_inf_degree_cases():
    F = FqField(5)
    x = poly_x(F)
    one = poly_const(F, F.one)
    assert eval_proj(RatFunc(x * x, x + one), INF) is INF
    assert eval_proj(RatFunc(x, x * x + one), INF) == F.zero
    assert eval_proj(RatFunc(3 * x, 2 * x + one), INF) == F.from_int(3) / F.from_int(2)


def test_is_bijective_power_map_oracle():
    # x^3 permutes P^1(F_p) iff 3 does not divide p - 1
    for p in primes_up_to(50):
        if p == 2:
            continue
        f = _over_fp(p, [0, 0, 0, 1], [1])
        assert is_bijective(f) is ((p - 1) % 3 != 0)


def test_is_bijective_mobius_always():
    for p in (3, 5, 11):
        # det = 1, never degenerate
        assert is_bijective(_over_fp(p, [1, 2], [1, 1])) is True


def test_is_bijective_over_fq2():
    # x^3 on P^1(F_25): 3 | 25 - 1 fails... 24 % 3 == 0, not bijective;
    # use x^7 with 7 coprime to 25^2 - 1? 624 = 16*39, 7 coprime -> bijective
    F = FqField(5, ext=2)
    from schurscope.exactalg import Poly
    x7 = [F.zero] * 7 + [F.one]
    f = RatFunc(Poly(F, x7), Poly(F, [F.one]))
    assert is_bijective(f) is True
    x3 = [F.zero] * 3 + [F.one]
    assert is_bijective(RatFunc(Poly(F, x3), Poly(F, [F.one]))) is False


@pytest.mark.parametrize("F", [FqField(3), FqField(7), FqField(3, 2),
                               FqField(5, 2)], ids=str)
def test_constant_and_zero_functions_are_not_bijective(F):
    """A constant function sends every point to one value and the zero
    function every point to 0, INF included: alone, and in one segmented
    batch between bijections, so that a collision cannot leak across
    segments."""
    x = poly_x(F)
    one = poly_const(F, F.one)
    c = F.elements()[-1]
    constants = [RatFunc(poly_const(F, c), one),
                 RatFunc(Poly(F, []), one),
                 RatFunc(poly_const(F, c), poly_const(F, F.from_int(2)))]
    for f in constants:
        assert f.num.degree <= 0 and f.den.degree == 0
        assert is_bijective(f) is False
    mobius = RatFunc(x + one, x + poly_const(F, F.from_int(2)))
    batch = [RatFunc(x, one), constants[0], mobius, constants[1], mobius,
             constants[2]]
    verdicts = projmap._bijective([projmap._rows(f) for f in batch])
    assert verdicts.tolist() == [True, False, True, False, True, False]


def test_is_bijective_cap(monkeypatch):
    f = _over_fp(1009, [0, 1], [1])
    monkeypatch.setattr(projmap, "DEFAULT_POINT_CAP", 100)
    with pytest.raises(PointCapExceeded):
        is_bijective(f)


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@pytest.mark.parametrize("ext", [1, 2])
def test_is_bijective_refuses_fields_past_int64_before_allocating(monkeypatch, ext):
    p = 2**31 + 11  # prime; p^2 overflows int64 products
    F = FqField(p, ext=ext)
    f = RatFunc(poly_x(F), poly_const(F, F.one))
    monkeypatch.setattr(projmap, "np", _NoArrays())
    monkeypatch.setattr(projmap, "DEFAULT_POINT_CAP", 1 << 70)
    with pytest.raises(PointCapExceeded) as exc:
        is_bijective(f)
    assert exc.value.place_degree == ext


# -- the slow oracle: eval_proj point by point, a collision found by a set

def _slow_is_bijective(f):
    seen = set()
    for x in f.field.elements() + [INF]:
        y = eval_proj(f, x)
        if y in seen:
            return False
        seen.add(y)
    return True


def _agree_with_oracle(f, bound):
    """Check every good odd prime up to bound; the place degrees checked."""
    checked = []
    for p in primes_up_to(bound)[1:]:
        try:
            fp = reduce_mod_place(f, p)
        except (BadReduction, RamifiedPlace):
            continue
        assert is_bijective(fp) == _slow_is_bijective(fp), (f, p)
        checked.append(fp.field.ext)
    return checked


_BUILTINS = [
    "builtin:isogeny5", "builtin:a4s4:0:2", "builtin:dickson:3:1",
    "builtin:dickson:5:1", "builtin:redei:3:-1", "builtin:redei:5:2",
    "builtin:redei3comp", "builtin:descent:0:2:5:6", "builtin:descent:3:0:3:4",
]


@pytest.mark.parametrize("name", _BUILTINS)
def test_is_bijective_matches_oracle_over_fp(name):
    assert len(_agree_with_oracle(builtin_function(name), 199)) > 30


def test_is_bijective_matches_oracle_over_fq2():
    assert _agree_with_oracle(cm7_function(1), 79).count(2) == 10


_FIELDS = [FqField(p, ext) for p in (3, 5, 7, 11) for ext in (1, 2)]


@st.composite
def _ratfunc_cases(draw):
    """(field, num, den) over a small F_q, coefficients as indices into
    field.elements(); den is nonzero, num may be zero."""
    F = draw(st.sampled_from(_FIELDS))
    coeff = st.integers(0, F.order - 1)
    num = draw(st.lists(coeff, max_size=5))
    den = draw(st.lists(coeff, max_size=4)) + [draw(st.integers(1, F.order - 1))]
    return F, num, den


@given(_ratfunc_cases())
@example((FqField(5), [3], [0, 2]))  # constant
@example((FqField(7), [0, 0, 0, 1], [1, 2]))  # dn > dd: INF -> INF
@example((FqField(3, 2), [1, 4], [2, 0, 5]))  # dn < dd: INF -> 0
@example((FqField(11, 2), [1, 7], [2, 1]))  # dn == dd: INF -> ratio of leads
@settings(max_examples=200, deadline=None)
def test_is_bijective_matches_oracle_on_random_functions(case):
    F, num, den = case
    els = F.elements()
    f = RatFunc(Poly(F, [els[i] for i in num]), Poly(F, [els[i] for i in den]))
    assert is_bijective(f) == _slow_is_bijective(f)


def _function(F, num, den):
    """The function with coefficients given by their indexes in
    F.elements()."""
    return RatFunc(Poly(F, [_decode(F, i) for i in num]),
                   Poly(F, [_decode(F, i) for i in den]))


def _row(F, indexes):
    """Coefficients given by their indexes in F.elements() as an evaluator
    row: ints over F_p, pairs (u, v) for u + v*sqrt(r) over F_p^2."""
    return [i if F.ext == 1 else divmod(i, F.p) for i in indexes]


def _index(F, c):
    """The index of c in F.elements()."""
    return c.v if F.ext == 1 else c.a.v * F.p + c.b.v


@given(st.lists(_ratfunc_cases(), min_size=1, max_size=6),
       st.integers(0, 1 << 16))
@example([(FqField(5), [3], [0, 2]), (FqField(7), [4], [1]),  # constants
          (FqField(3), [], [1])], 0)  # the zero function
@example([(FqField(7), [0, 0, 0, 1], [1, 2]),  # dn > dd: INF -> INF
          (FqField(3, 2), [1, 4], [2, 0, 5]),  # dn < dd: INF -> 0
          (FqField(11, 2), [1, 7], [2, 1]),  # dn == dd: ratio of leads
          (FqField(5), [1], [0, 0, 1]),  # a double pole at 0
          (FqField(11), [0, 0, 0, 1], [1])], 5)  # x^3, bijective mod 11
@settings(max_examples=150, deadline=None)
def test_segmented_verdicts_match_oracle(cases, seed):
    """The int rows of each place degree in one segmented pass, each over
    its own field, against the point-by-point oracle. Each function's rows
    are scaled by a unit, so that den is seldom monic."""
    fs, rows = [], []
    for k, (F, num, den) in enumerate(cases):
        f = _function(F, num, den)  # num and den made coprime
        unit = F.elements()[1 + (seed + k) % (F.order - 1)]
        fs.append(f)
        num, den = ([_index(F, c * unit) for c in g.coeffs]
                    for g in (f.num, f.den))
        rows.append(Reduced(F, _row(F, num), _row(F, den)))
    for ext in (1, 2):
        batch = [i for i, f in enumerate(fs) if f.field.ext == ext]
        if batch:
            verdicts = projmap._bijective([rows[i] for i in batch])
            assert list(verdicts) == [_slow_is_bijective(fs[i])
                                      for i in batch]


def _int32_boundary(ext):
    """The last prime whose field of place degree ext the evaluator takes in
    int32, and the first prime past it."""
    ps = [p for p in primes_up_to(50_000)[1:]
          if projmap._exact_dtype([FqField(p, ext)]) is np.int32]
    last = ps[-1]
    return last, next(p for p in primes_up_to(50_000) if p > last)


@pytest.mark.parametrize("ext", [1, 2])
def test_images_are_exact_on_both_sides_of_the_int32_boundary(ext):
    last, past = _int32_boundary(ext)
    rng = np.random.default_rng(20)
    for p, dtype in ((last, np.int32), (past, np.int64)):
        F = FqField(p, ext)
        assert projmap._exact_dtype([F]) is dtype
        # large coefficients, so that the products come near p^2
        cs = [F.order - 1 - int(c) for c in rng.integers(0, 50, 9)]
        f = _function(F, cs[:5], cs[5:])
        assert (f.num.degree, f.den.degree) == (4, 3)  # the rows are coprime
        rows = Reduced(F, _row(F, cs[:5]), _row(F, cs[5:]))
        j = np.append(rng.integers(0, F.order, 200), F.order)
        want = []
        for i in j:
            y = eval_proj(f, _decode(F, int(i)))
            want.append(F.order if y is INF else _index(F, y))
        seg = np.zeros(len(j), np.intp)
        assert projmap._images([rows], j, seg).tolist() == want, (p, dtype)


def test_sweep_primes_equals_sweep_prime_per_prime():
    primes = primes_up_to(199)[1:]
    for name in _BUILTINS + ["builtin:cm7"]:
        f = builtin_function(name)
        records = projmap.sweep_primes(f, primes)
        assert records == [sweep_prime(f, p) for p in primes], name
    # cm7 has both split and inert places below 199
    assert {r.place_degree for r in records} == {0, 1, 2}


def test_sweep_primes_of_no_primes():
    assert projmap.sweep_primes(cm7_function(1), []) == []


@pytest.mark.parametrize("name", ["builtin:cm7", "builtin:redei:3:-1",
                                  "builtin:dickson:5:1"])
def test_sweep_in_many_batches_and_chunks_gives_the_same_records(
        monkeypatch, name):
    f = builtin_function(name)
    primes = primes_up_to(199)[1:]
    unbatched = projmap.sweep_primes(f, primes)
    batches = []
    reduced = []  # the places reduced so far that fit the cap, in order
    bijective = projmap._bijective

    def counted(fs):
        assert all(isinstance(g, Reduced) for g in fs)
        batches.append(sum(g.field.order + 1 for g in fs))
        # a batch is evaluated once the next place of its degree is reduced,
        # before any place after that one: the sweep holds one batch a degree
        ext, last = fs[0].field.ext, max(g.field.p for g in fs)
        assert sum(g.field.ext == ext and g.field.p > last
                   for g in reduced) <= 1
        return bijective(fs)

    class CountedReducer(projmap.Reducer):
        def at(self, p):
            fp = super().at(p)
            if fp.field.order + 1 <= projmap.DEFAULT_POINT_CAP:
                reduced.append(fp)
            return fp

    monkeypatch.setattr(projmap, "_bijective", counted)
    monkeypatch.setattr(projmap, "Reducer", CountedReducer)
    monkeypatch.setattr(projmap, "DEFAULT_POINT_CAP", 500)
    monkeypatch.setattr(projmap, "_CHUNK", 97)  # chunks split the segments
    records = projmap.sweep_primes(f, primes)
    assert len(batches) > 5 and max(batches) <= 500
    for r, u in zip(records, unbatched):
        if r.verdict == "point-cap":  # inert places with p^2 + 1 > 500
            assert u.place_degree == 2 and r.p ** 2 + 1 > 500
        else:
            assert r == u


def test_sweep_prime_verdicts():
    x = poly_x(QQ)
    f = RatFunc(x ** 3, poly_const(QQ, Fraction(1)))
    assert sweep_prime(f, 7).verdict == "not-bijective"  # 3 | 6
    assert sweep_prime(f, 5).verdict == "bijective"
    g = RatFunc(x * x + poly_const(QQ, Fraction(2)), x + poly_const(QQ, Fraction(1)))
    assert sweep_prime(g, 3).verdict == "bad-reduction"


def test_schur_sweep_report():
    x = poly_x(QQ)
    f = RatFunc(x ** 3, poly_const(QQ, Fraction(1)))
    rep = schur_sweep(f, 100)
    odd_primes = [p for p in primes_up_to(100) if p > 2]
    assert len(rep.records) == len(odd_primes)
    assert [r.p for r in rep.records] == odd_primes
    assert rep.bijective == sum(1 for p in odd_primes if (p - 1) % 3)
    assert rep.bijective + rep.not_bijective + rep.bad_reduction + rep.ramified \
        == len(odd_primes)
    assert rep.density == Fraction(rep.bijective, rep.good_primes)


def test_schur_sweep_quadratic_constants():
    # x^2 is never bijective (squaring is 2:1 away from 0)
    x = poly_x(QQ)
    rep = schur_sweep(RatFunc(x * x, poly_const(QQ, Fraction(1))), 60)
    assert rep.bijective == 0 and rep.density == 0


def test_sweep_to_dict_shape():
    x = poly_x(QQ)
    rep = schur_sweep(RatFunc(x ** 3, poly_const(QQ, Fraction(1))), 20)
    d = rep.to_dict("x^3")
    assert d["function"] == "x^3"
    assert set(d) == {"function", "records", "density"}
    assert all(set(r) == {"p", "place_degree", "verdict"} for r in d["records"])
    num, den = d["density"].split("/")
    assert int(num) >= 0 and int(den) >= 1


def test_sweep_point_cap_is_a_verdict(monkeypatch):
    f = cm7_function(1)
    uncapped = schur_sweep(f, 60)
    monkeypatch.setattr(projmap, "DEFAULT_POINT_CAP", 1000)
    rep = schur_sweep(f, 60)
    odd_primes = [p for p in primes_up_to(60) if p > 2]
    assert [r.p for r in rep.records] == odd_primes
    capped = [r for r in rep.records if r.verdict == "point-cap"]
    # inert places are p = 2 mod 3, with p^2 + 1 points
    assert [r.p for r in capped] == [p for p in odd_primes
                                     if p % 3 == 2 and p * p + 1 > 1000]
    assert all(r.place_degree == 2 for r in capped)
    assert rep.point_cap == len(capped)
    assert rep.good_primes == rep.bijective + rep.not_bijective
    assert rep.good_primes + rep.bad_reduction + rep.ramified + rep.point_cap \
        == len(odd_primes)
    for r, u in zip(rep.records, uncapped.records):
        assert r == u or (r.verdict == "point-cap" and u.place_degree == 2)
    # on its own, a prime past the cap is an error, not a verdict
    with pytest.raises(PointCapExceeded):
        sweep_prime(f, 59)


def test_sweep_report_from_records_counts_each_verdict():
    verdicts = ["bijective", "not-bijective", "not-bijective", "bad-reduction",
                "ramified", "point-cap", "bijective"]
    rep = SweepReport.from_records(
        SweepRecord(p, 1, v) for p, v in zip(primes_up_to(20)[1:], verdicts))
    assert (rep.bijective, rep.not_bijective, rep.bad_reduction, rep.ramified,
            rep.point_cap) == (2, 2, 1, 1, 1)
    assert rep.density == Fraction(2, 4)


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_decode_matches_field_enumeration(p):
    """The oracles' numbering of P^1 is the evaluator's."""
    for F in (FqField(p), FqField(p, 2)):
        els = F.elements()
        assert [_decode(F, i) for i in range(F.order)] == els
        assert [_index(F, c) for c in els] == list(range(F.order))
        assert _decode(F, F.order) is INF
