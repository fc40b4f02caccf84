"""Command-line interface: argument handling, exit codes, JSON output
shapes, and the builtin function registry."""

import argparse
import ast
import inspect
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurscope import claims, exactalg
from schurscope.cli import (
    build_parser,
    builtin_function,
    load_function,
    load_group,
    main,
)
from schurscope.ellipt import EllCurve, quotient_descent
from schurscope.exactalg import QQ, parse_ratfunc
from schurscope.funfam import dickson, sporadic_degree5
from schurscope.permcore import Perm, PermGroup
from schurscope.projmap import SweepRecord, schur_sweep, sweep_primes


def dump_group(G, path):
    """Write G in the group file format that load_group reads."""
    with open(path, "w") as fh:
        json.dump({"degree": G.degree,
                   "generators": [list(g.images) for g in G.gens]}, fh)


def test_builtin_function_registry():
    assert builtin_function("builtin:isogeny5") == sporadic_degree5()
    assert builtin_function("builtin:dickson:3:1") == dickson(3, 1)
    assert builtin_function("builtin:redei:3:2").degree == 3
    assert builtin_function("builtin:a4s4:0:2").degree == 4
    assert builtin_function("builtin:cm7").degree == 7
    assert builtin_function("builtin:redei3comp").degree == 27
    with pytest.raises(ValueError):
        builtin_function("builtin:nope")
    with pytest.raises(ValueError):
        builtin_function("dickson:3:1")


def test_load_function_literal_and_file(tmp_path):
    f = load_function("x^3 + 1 / x")
    assert f.num.degree == 3
    path = tmp_path / "f.txt"
    path.write_text("x^2 + 2 / x + 1\n")
    g = load_function(str(path))
    assert g.degree == 2


def test_group_json_roundtrip(tmp_path):
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    path = tmp_path / "g.json"
    dump_group(S4, str(path))
    G = load_group(str(path))
    assert G.degree == 4 and G.order == 24


def test_sweep_command_json(capsys):
    rc = main(["sweep", "--function", "builtin:dickson:3:1", "--bound", "100"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["function"] == "builtin:dickson:3:1"
    assert all(set(r) == {"p", "place_degree", "verdict"} for r in doc["records"])
    num, den = doc["density"].split("/")
    assert 0 <= int(num) <= int(den)


def test_sweep_command_out_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["sweep", "--function", "x^3 + 1 / 1", "--bound", "50",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["records"]


def test_sweep_records_point_cap_verdicts():
    # 1031 is inert for cm7, and 1031^2 + 1 points exceed the default cap
    f = builtin_function("builtin:cm7")
    assert sweep_primes(f, [11, 1031, 19]) == [
        SweepRecord(11, 2, "bijective"), SweepRecord(1031, 2, "point-cap"),
        SweepRecord(19, 1, "not-bijective")]


def test_sweep_computes_one_resultant(monkeypatch):
    calls = []
    resultant = exactalg._resultant

    def counted(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(exactalg, "_resultant", counted)
    schur_sweep(builtin_function("builtin:cm7"), 400)
    assert len(calls) == 1


def test_exceptional_command(tmp_path, capsys):
    S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
    C3 = PermGroup(3, [Perm([1, 2, 0])])
    a_path, g_path = tmp_path / "a.json", tmp_path / "g.json"
    dump_group(S3, str(a_path))
    dump_group(C3, str(g_path))
    rc = main(["exceptional", "--group", str(a_path), "--normal", str(g_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"exceptional": True, "common_orbits": 1, "witness": None}
    rc = main(["exceptional", "--group", str(a_path), "--normal", str(g_path),
               "--arith"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arithmetically_exceptional"] is True


def test_genus_command(capsys):
    rc = main(["genus", "--type", "2,3,8", "--order", "5808"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 122 and doc["classification"] == "hyperbolic"
    rc = main(["genus", "--type", "2,3,5", "--order", "60"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 0 and doc["case"] == "(2,3,5)"


def test_genus0_command(tmp_path, capsys):
    S4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    path = tmp_path / "s4.json"
    dump_group(S4, str(path))
    rc = main(["genus0", "--group", str(path), "--rmax", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 4 and doc["order"] == 24
    assert [2, 3, 4] in doc["types"]
    for rmax in ("-3", "1"):
        assert main(["genus0", "--group", str(path), "--rmax", rmax]) == 2
        assert "r_max must be >= 2" in capsys.readouterr().err


def test_genus0_over_a_cap_exits_2(tmp_path, capsys):
    # S8 on 8 points, order 40320, and C_1301, degree 1301, are over the
    # search's caps; a group file of degree 4097 is over DEGREE_CAP
    groups = {"s8": {"degree": 8, "generators": [[1, 0, 2, 3, 4, 5, 6, 7],
                                                 [1, 2, 3, 4, 5, 6, 7, 0]]},
              "c1301": {"degree": 1301,
                        "generators": [list(range(1, 1301)) + [0]]},
              "big": {"degree": 4097, "generators": []}}
    for name, doc in groups.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["genus0", "--group", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, name


def test_family_command(capsys):
    rc = main(["family", "builtin:dickson:3:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x^3" in out
    rc = main(["family", "builtin:isogeny5"])
    assert rc == 0


def test_family_out_file_holds_a_descent(capsys, tmp_path):
    out = tmp_path / "r.txt"
    rc = main(["family", "builtin:descent:0:2:2:3", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().out == ""
    R = parse_ratfunc(out.read_text().strip())
    assert R.degree == 4
    assert R == quotient_descent(EllCurve(QQ, 0, 2), 2, 3)
    assert main(["family", "builtin:descent:0:2:2:3"]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("spec", ["builtin:cm7", "builtin:cm7:5", "builtin:isogeny5",
                                  "builtin:redei3comp", "builtin:descent:3:0:3:4"])
def test_family_text_parses_back_to_the_function(capsys, spec):
    assert main(["family", spec]) == 0
    text = capsys.readouterr().out.strip()
    assert parse_ratfunc(text) == load_function(spec)
    # the printed text writes a negative coefficient as "+ -c"; the same
    # text with "- c" is the same function
    assert parse_ratfunc(text.replace(" + -", " - ")) == load_function(spec)


def test_bad_input_exits_2(capsys, tmp_path):
    assert main(["sweep", "--function", "builtin:nope"]) == 2
    # the exponent is refused before any coefficient list is allocated
    for text in ("builtin:dickson:3", "builtin:a4s4:1", "builtin:cm7:1:2",
                 "builtin:dickson:3:1/0", "(51/0)35", "1 / 0", "x^1000000000",
                 "x^3/2", "x^3 + 1 )"):
        assert main(["sweep", "--function", text]) == 2
    # argparse stores [] for a lone "--" value
    assert main(["sweep", "--function=--", "--bound", "30"]) == 2
    # a bad spec is refused by family as by sweep
    for spec in ("builtin:dickson", "builtin:redei", "builtin:descent:0:2:5",
                 "builtin:dickson:3:1/0", "builtin:descent:0:2:-1:3",
                 "builtin:descent:0:2:-1:6", "builtin:descent:0:2:2:5"):
        assert main(["family", spec]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, spec
    # builtin degrees are capped like the exponents of function text; the
    # descents of orders 3 and 6 at m = 29 need psi_31, past DIVPOLY_CAP
    for argv in (["family", "builtin:dickson:20000:1"],
                 ["sweep", "--function", "builtin:redei:20001:3", "--bound", "5"],
                 ["family", "builtin:descent:0:2:29:3"],
                 ["family", "builtin:descent:0:2:29:6"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert "exceeds cap" in capsys.readouterr().err
    assert main(["genus", "--type", "2", "--order", "12"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["exceptional", "--group", missing, "--normal", missing]) == 2
    for i, doc in enumerate(([1], {"degree": "3", "generators": []},
                             {"degree": 3, "generators": 5},
                             {"degree": 3, "generators": [[0, 1, "a"]]},
                             {"degree": -1, "generators": []},
                             {"degree": 3, "generators": [[1, 0, 2]]},
                             {"generators": []}, {"degree": True,
                                                  "generators": []})):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["genus0", "--group", str(path)]) == 2, doc
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_large_sqrt_discriminant_exits_2_at_once(capsys):
    # 2^61 - 1 is prime: trial division to its square root would run ~1.5e9
    # steps before the field could be refused
    start = time.perf_counter()
    assert main(["sweep", "--function", "sqrt(2305843009213693951)",
                 "--bound", "30"]) == 2
    assert time.perf_counter() - start < 1
    assert "exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["1", "2"])
def test_sweep_bound_past_the_point_cap_exits_2_at_once(capsys, a):
    # every prime past the cap could only be a point-cap verdict, and the
    # sieve of the bound would not fit in memory
    start = time.perf_counter()
    assert main(["sweep", "--function", f"builtin:dickson:3:{a}",
                 "--bound", "100000000000000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "exceeds the point cap" in err and "Traceback" not in err


def test_sweep_command_sweeps_a_descent_by_name(capsys):
    spec = "builtin:descent:0:2:5:6"
    assert main(["sweep", "--function", spec, "--bound", "500"]) == 0
    doc = json.loads(capsys.readouterr().out)
    R = quotient_descent(EllCurve(QQ, 0, 2), 5, 6)
    assert doc == schur_sweep(R, 500).to_dict(spec)


def test_every_option_is_read_by_its_handler():
    """Each option of each subcommand is read as args.<dest> in the handler
    the subcommand sets, so no option is parsed and then ignored."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        handler = ast.parse(inspect.getsource(p.get_default("fn")))
        read = {n.attr for n in ast.walk(handler) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        options = {a.dest for a in p._actions if a.dest != "help"}
        assert options - read == set(), name


def test_verify_paper_genus_table(capsys):
    rc = main(["verify-paper", "genus-table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "genus-table: ok" in out


def test_verify_paper_unknown_target():
    assert main(["verify-paper", "bogus"]) == 2


def test_verify_paper_exit_codes(monkeypatch, capsys):
    monkeypatch.setitem(claims.CLAIMS, "holds", lambda: iter([("one", 1, 1)]))
    monkeypatch.setitem(claims.CLAIMS, "fails", lambda: iter([("two", 3, 2)]))
    assert main(["verify-paper", "holds"]) == 0
    assert main(["verify-paper", "holds", "fails"]) == 1
    out = capsys.readouterr().out
    assert "  one: 1 (expected 1)\n" in out and "== holds: ok" in out
    assert "  two: 3 (expected 2)  MISMATCH\n" in out and "== fails: FAILED" in out
    # every name is checked before any claim runs
    assert main(["verify-paper", "holds", "bogus"]) == 2
    assert "== holds" not in capsys.readouterr().out


_TOKENS = ["x", "^", "*", "+", "-", "/", "(", ")", "sqrt", " ",
           *"0123456789"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join))
def test_sweep_fuzzed_text_exits_0_or_2(text):
    try:
        rc = main(["sweep", "--function", text, "--bound", "30"])
    except SystemExit as exc:  # argparse usage errors, e.g. text "-x"
        rc = exc.code
    assert rc in (0, 2)


_GROUP_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["degree", "generators"]), inner),
    max_leaves=12)


@st.composite
def _group_files(draw):
    """Arbitrary JSON, or an object with a degree and generators that may
    or may not be permutations of that degree."""
    if draw(st.booleans()):
        return draw(_GROUP_DOCS)
    degree = draw(st.integers(-1, 5) | _GROUP_DOCS)
    n = draw(st.integers(0, 5))
    gen = st.permutations(range(n)) | st.lists(st.integers(-1, 5), max_size=5)
    return {"degree": degree, "generators": draw(st.lists(gen, max_size=3))}


@settings(max_examples=60, deadline=None)
@given(_group_files(), _group_files())
def test_group_commands_fuzzed_json_exit_0_or_2(tmp_path_factory, a, g):
    root = tmp_path_factory.mktemp("groups")
    a_path, g_path = root / "a.json", root / "g.json"
    a_path.write_text(json.dumps(a))
    g_path.write_text(json.dumps(g))
    for argv in (["genus0", "--group", str(a_path), "--rmax", "3"],
                 ["exceptional", "--group", str(a_path), "--normal", str(g_path)],
                 ["exceptional", "--group", str(a_path), "--normal", str(g_path),
                  "--arith"]):
        assert main(argv) in (0, 2), argv
