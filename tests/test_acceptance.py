"""End-to-end acceptance checks: one test per claim of `schurscope.claims`,
in criterion order, failing with the claim's failing rows.  The
exceptionality claim takes most of the time: it checks every coset of the
degree-1296 wreath example."""

from schurscope import claims


def _holds(name):
    rows, failed, _ = claims.run(name)
    assert rows and not failed, failed


def test_criterion_1_regular_genus_table():
    _holds("genus-table")


def test_criterion_2_genus0_classification():
    _holds("genus0")


def test_criterion_3_fixed_point_tables():
    _holds("fixed-points")


def test_criterion_4_exceptionality_verdicts():
    _holds("exceptionality")


def test_criterion_5_schur_sweeps():
    _holds("sweeps")


def test_criterion_6_elliptic_identities():
    _holds("elliptic")


def test_criterion_7_degree16_obstruction():
    _holds("deg16")
