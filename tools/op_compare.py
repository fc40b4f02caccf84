"""Per-operation times of two source trees, interleaved in one interpreter.

    python3 tools/op_compare.py PARENT_SRC HEAD_SRC --workload genus0 --rounds 30

PARENT_SRC and HEAD_SRC are ``src/`` directories, each holding a
``schurscope`` package (the same directory may be given twice). Each tree is
imported into this interpreter with its own copy of the package's modules
and its own import of this checkout's ``perfbench/workloads.py`` and
``perfbench/oracles.py``, and the workload is built once per tree from
the seed ``SEED``. The rounds then alternate between the trees, the first
tree first in even rounds, and every operation of a round is timed on its own
(``time.perf_counter``, after a ``gc.collect()`` per round, as
``perfbench/run.py`` does). Two benchmark processes run one after the other
on a shared host can disagree in sign for one pair; rounds interleaved in
one interpreter see the same drift on both sides.

Prints, per operation, the fastest and the median time of each tree and the
ratio of the fastest times (HEAD over PARENT), then the fastest and median
round of each tree. Every round's answers are checked by the workload's
oracles outside the timed region; the exit code is 1 when any answer is
wrong or an operation fails that the workload does not expect to fail.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_OWN = ("schurscope", "workloads", "oracles")  # modules imported per tree
SEED = 9301  # outside bench_record.py's SEEDS, 9201-9210


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="SRC",
                    help="the parent's and the change's src/ directories")
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "exceptional", "genus0"))
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's tiny sizes")
    return ap.parse_args(argv)


def _owned(name):
    return name.split(".")[0] in _OWN


def _install(modules):
    """Put one tree's modules in sys.modules in place of any other's: the
    package imports some names inside functions, through sys.modules."""
    for name in [m for m in sys.modules if _owned(m)]:
        del sys.modules[name]
    sys.modules.update(modules)


def _load(src):
    """The modules of one tree, imported afresh from src: the package's and
    the benchmark's workloads and oracles, by name."""
    _install({})
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    try:
        importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    return {name: mod for name, mod in sys.modules.items() if _owned(name)}


def _round(plan):
    """Seconds per operation of one round, the round's seconds, and the
    errors of the round: wrong answers and unexpected failures."""
    out, times, errors = {}, {}, []
    start = time.perf_counter()
    for name, fn in plan.ops:
        t0 = time.perf_counter()
        try:
            out[name] = fn(out)
        except Exception as exc:  # reported below unless expected
            out[name] = exc
            want = plan.expected_failures.get(name)
            if want is None or not isinstance(exc, want):
                errors.append(f"{name} failed: {exc!r}")
        times[name] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    return times, wall, errors + plan.check(out)


def compare(trees, workload, rounds, smoke=False):
    """{tree index: (per-op lists of seconds, round seconds)} and the
    errors seen, from rounds alternating between the trees."""
    saved = {name: mod for name, mod in sys.modules.items() if _owned(name)}
    try:
        modules = [_load(src) for src in trees]
        plans = []
        for mods in modules:
            _install(mods)
            plans.append(mods["workloads"].build(workload, SEED, smoke))
        times = {k: ({name: [] for name, _ in plans[k].ops}, [])
                 for k in range(len(trees))}
        errors = []
        for r in range(rounds):
            for k in (range(len(trees)) if r % 2 == 0
                      else reversed(range(len(trees)))):
                _install(modules[k])
                gc.collect()
                per_op, wall, errs = _round(plans[k])
                for name, s in per_op.items():
                    times[k][0][name].append(s)
                times[k][1].append(wall)
                errors += [f"tree {k} round {r}: {e}" for e in errs]
    finally:
        _install(saved)
    return times, errors


def _table(times):
    """The printed lines: per op, then per round, fastest and median in ms."""
    (ops_a, walls_a), (ops_b, walls_b) = times[0], times[1]
    rows = [(name, ops_a[name], ops_b[name]) for name in ops_a]
    rows += [("round", walls_a, walls_b)]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'op':<{width}}  {'PARENT min':>10} {'median':>8}  "
             f"{'HEAD min':>10} {'median':>8}  {'HEAD/PARENT':>11}"]
    for name, a, b in rows:
        lines.append(f"{name:<{width}}  {min(a) * 1e3:10.3f} "
                     f"{statistics.median(a) * 1e3:8.3f}  "
                     f"{min(b) * 1e3:10.3f} "
                     f"{statistics.median(b) * 1e3:8.3f}  "
                     f"{min(b) / min(a) if min(a) else float('nan'):11.3f}")
    return lines


def main(argv=None):
    args = _args(sys.argv[1:] if argv is None else argv)
    times, errors = compare(args.trees, args.workload, args.rounds,
                            args.smoke)
    print(f"{args.workload}, seed {SEED}, {args.rounds} rounds "
          f"alternating, times in ms")
    print("\n".join(_table(times)))
    for e in errors:
        print(f"op_compare.py: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
