"""Tests of the benchmark itself, on the smoke sizes (about ten seconds):

    python3 -m pytest perfbench/test_smoke.py

Each workload's smoke round must pass its checks, and each check must reject
a corrupted answer, so that a wrong result cannot pass unseen.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from schurscope.exceptio import ArithVerdict, ExceptionalityVerdict  # noqa: E402


@pytest.fixture(scope="module")
def rounds():
    """Each workload's smoke plan with the answers of one round."""
    out = {}
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, seed=3, smoke=True)
        answers, failed, _ = run.run_round(plan)
        out[name] = (plan, answers, failed)
    return out


def _corrupt(rounds, name, key, change):
    plan, answers, _ = rounds[name]
    bad = dict(answers)
    bad[key] = change(answers[key])
    return plan.check(bad)


def _flip_record(report, i):
    recs = list(report.records)
    r = recs[i]
    flipped = "not-bijective" if r.verdict == "bijective" else "bijective"
    recs[i] = dataclasses.replace(r, verdict=flipped)
    return dataclasses.replace(report, records=tuple(recs))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_round_passes_its_checks(rounds, name):
    plan, answers, failed = rounds[name]
    assert plan.check(answers) == []
    # the only failures are the kept probes, each of its expected type
    raised = {k for k, v in answers.items() if isinstance(v, Exception)}
    assert raised == {k for k in plan.expected_failures if k in answers}
    assert failed == len(raised)
    for k in raised:
        assert isinstance(answers[k], plan.expected_failures[k])


@pytest.mark.parametrize("key,change", [
    ("fp:isogeny5", lambda rep: _flip_record(rep, 5)),
    ("fp:dickson(7,1)", lambda rep: _flip_record(rep, 9)),
    ("fp:a4s4(0,2)", lambda rep: dataclasses.replace(
        rep, records=rep.records[:-1])),
    ("fp:redei3comp", lambda rep: dataclasses.replace(
        rep, bijective=rep.bijective + 1)),
    ("fq2:cm7", lambda rep: _flip_record(rep, 4)),
])
def test_sweep_checks_reject_corrupted_answers(rounds, key, change):
    assert _corrupt(rounds, "sweep", key, change)


@pytest.mark.parametrize("key,change", [
    ("S4/A4:is_exceptional", lambda v: ExceptionalityVerdict(
        v.exceptional, v.r + 1, v.witness)),
    ("S3/C3:is_exceptional", lambda v: ExceptionalityVerdict(False, 2)),
    ("S3wr3:is_exceptional", lambda v: ExceptionalityVerdict(True, 1)),
    ("deg28:is_exceptional", lambda v: ExceptionalityVerdict(False, 2)),
    ("deg28:arith", lambda v: ArithVerdict(True, witness=None)),
    ("deg45:arith", lambda v: ArithVerdict(False)),
])
def test_exceptional_checks_reject_corrupted_answers(rounds, key, change):
    assert _corrupt(rounds, "exceptional", key, change)


def test_exceptional_check_rejects_a_witness_inside_g(rounds):
    plan, answers, _ = rounds["exceptional"]
    G = answers["deg45:build"][1]
    bad = dict(answers, **{"deg45:arith": ArithVerdict(True, G.gens[0])})
    assert plan.check(bad)


@pytest.mark.parametrize("key,change", [
    ("deg28:genus0", lambda types: types[1:]),
    ("deg45:genus0", lambda types: types + [(2, 3, 7)]),
    ("classes:psl2(8)", lambda classes: classes[:-1]),
    ("chi:order2", lambda res: (res[0] + 1, res[1])),
    ("chi:order3", lambda res: (res[0], res[1] - 2)),
])
def test_genus0_checks_reject_corrupted_answers(rounds, key, change):
    assert _corrupt(rounds, "genus0", key, change)


def test_traced_round_gives_spans_with_parents_and_layer_metrics():
    plan = workloads.build("genus0", seed=4, smoke=True)
    tr = tracer.Tracer()
    with tr.installed():
        answers, _, wall = run.run_round(plan, tr)
    assert plan.check(answers) == []
    spans = tr.spans
    assert all(s[4] is not None and s[4] >= s[3] for s in spans)
    roots = [s for s in spans if s[1] is None]
    assert roots and all(s[2].startswith("bench.") for s in roots)
    assert any(spans[s[1]][2] == "ramgenus.genus0_search" for s in spans
               if s[1] is not None)
    m = tracer.layer_metrics(spans, rounds=1)
    self_total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert all(m[f"{layer}.self_s"] >= 0 for layer in tracer.LAYERS)
    assert 0 < self_total <= wall
    assert m["ramgenus.genus0_search.types"] == 4
    assert m["permcore.chain_build.calls"] >= m["ramgenus.generation_tests"] > 0
    # the wrappers are gone after the block
    assert workloads.ramgenus.genus0_search.__module__ == "schurscope.ramgenus"


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "5", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # one round of eight operations, of which the 1031 probe fails
    assert (result["attempted"], result["failed"]) == (8, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
