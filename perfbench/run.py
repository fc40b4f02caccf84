"""schurscope benchmark: one workload per process, every answer checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and exits with code 2 when that is missing.  A run sets up
the workload's inputs from ``--seed``, then repeats whole rounds of the
workload's operations while another round still fits in ``--seconds`` (at
least one round), checks each round's answers against ``oracles`` outside
the timed region, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s``
(median over child interpreters that only import the package and build the
inputs) and ``peak_rss_mb``.  ``wall_s`` is the fastest round's wall time
at a fixed host speed: the speed of a shared host drifts by half over
minutes, so before each round the run times a fixed pure-Python
``reference`` loop, and ``wall_s`` is the fastest round scaled by
``REFERENCE_S`` over the fastest reference time of the run.  ``--trace 1`` wraps the
package's entry points in spans, reports the per-layer metrics of
``tracer`` and ``kernel``, and writes the spans as JSON lines under
``.bench_build/trace/``.  ``--smoke`` shrinks every workload to seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
REFERENCE_S = 0.1  # the reference loop's time at the speed wall_s assumes
_REF_PERMS = [tuple((i * m + 7) % 499 for i in range(499))
              for m in (2, 3, 5, 7, 11, 13, 17, 19)]


def reference():
    """Seconds for a fixed mix of what the package spends its time on:
    tuple composition, dict insertion and integer arithmetic."""
    t0 = time.perf_counter()
    seen, cur = {}, _REF_PERMS[0]
    for i in range(4000):
        b = _REF_PERMS[i % 8]
        cur = tuple(b[x] for x in cur)
        seen[cur] = i
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "exceptional", "genus0"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for testing the benchmark itself")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit")
    return ap.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / "schurscope" / "__init__.py").is_file():
        print(f"run.py: no schurscope sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]


def setup_seconds(argv):
    """Median wall time of child interpreters that import the package and
    build the inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv,
           "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(plan, tracer=None):
    """One round: (answers or exceptions by operation, failures, seconds)."""
    out, failed = {}, 0
    t0 = time.perf_counter()
    for name, fn in plan.ops:
        try:
            if tracer is None:
                out[name] = fn(out)
            else:
                with tracer.span(f"bench.{name}"):
                    out[name] = fn(out)
        except Exception as exc:  # counted as a failed operation
            out[name] = exc
            failed += 1
            want = plan.expected_failures.get(name)
            if want is None or not isinstance(exc, want):
                print(f"run.py: {name} failed unexpectedly: {exc!r}",
                      file=sys.stderr)
    return out, failed, time.perf_counter() - t0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _args(argv)
    _import_package()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, args.smoke)
        return 0

    setup_s = setup_seconds(argv)
    plan = workloads.build(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    walls, refs, errors = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        refs.append(reference())
        if tracer is None:
            out, nfail, wall = run_round(plan)
        else:
            with tracer.installed():
                out, nfail, wall = run_round(plan, tracer)
        walls.append(wall)
        attempted += len(plan.ops)
        failed += nfail
        errors += plan.check(out)
        del out
        if time.perf_counter() - start + statistics.median(walls) \
                > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for e in errors:
        print(f"run.py: wrong answer: {e}", file=sys.stderr)
    wall_s = min(walls) * REFERENCE_S / min(refs)
    if tracer is None:
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": peak_rss_mb}
    else:
        import kernel
        metrics = tracing.layer_metrics(tracer.spans, len(walls))
        metrics["trace.wall_s"] = wall_s
        metrics.update(kernel.measure(args.seed))
        trace_dir = ROOT / ".bench_build" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": _with_units(metrics, "per_layer" if tracer is not None else
                               "end_to_end"),
    }))
    return 0


def _with_units(values, kind):
    """The metrics as BENCHMARK.json declares them, each with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


if __name__ == "__main__":
    sys.exit(main())
