"""The benchmark's tracer wraps package entry points by name: each one it
patches must exist, so that renaming one fails here and not only in the
traced benchmark run."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    tr = tracer.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tr._targets()]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tr.installed():
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, before))
    assert [owner.__dict__[attr] for owner, attr in targets] == before
