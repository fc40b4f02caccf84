"""`tools/op_compare.py` loads two source trees into one interpreter and
times the benchmark's operations on each; here both sides are this tree."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "exceptional", "genus0"])
def test_op_compare_runs_a_tree_against_itself(workload):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_compare.py"), src, src,
         "--workload", workload, "--rounds", "2", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"{workload}, seed 9301, 2 rounds")
    ops = [line.split()[0] for line in lines[2:]]
    assert ops[-1] == "round" and len(ops) > 3
    for line in lines[2:]:
        times = [float(x) for x in line.split()[1:]]
        assert len(times) == 5 and all(t > 0 for t in times), line
