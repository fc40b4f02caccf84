"""Benchmark records: run the benchmark on git revisions, alternating, and
write one ``BENCH_<rev>.json`` per revision.

    python3 tools/bench_record.py 6dc198a HEAD --seconds 35

Each revision is extracted with ``git archive`` into a temporary directory,
so the records measure committed files only. For every seed of ``SEEDS``
and every workload the revisions run one after another, each as
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from its own
checkout, with the first of them alternating from seed to seed: paired runs
on one host, as a shared host's speed drifts over minutes. A record holds
every run, the first, second and third quartile of ``setup_s``, ``wall_s``
and ``peak_rss_mb`` per workload (``statistics``' inclusive quartiles), the
seeds, the full revision, the revisions it alternated with, and the host:
cores, Python and numpy versions. The files are written to the root of the
current checkout.

After the workloads, each claim of ``schurscope.claims`` runs
``CLAIM_RUNS`` times per revision, each time as ``claims.run(name)`` in a
fresh interpreter from the revision's checkout, the revisions alternating
as for the workloads. That interpreter first times the fixed pure-Python
``reference`` loop of the checkout's ``perfbench/run.py`` (imported, the
fastest of ``REFERENCE_RUNS``), as the benchmark does before each round, so
a claim's seconds can be put at the fixed host speed that ``wall_s``
assumes: seconds * ``REFERENCE_S`` / reference. A record holds, per claim
and run, the raw seconds, the reference seconds and the scaled seconds,
and the medians of the raw and of the scaled seconds.

Last, each CLI probe of ``PROBES`` runs ``CLAIM_RUNS`` times per revision,
alternating in the same way, each as ``cli.main(argv)`` in a fresh
interpreter that first times the reference loop as for the claims; in a
probe, ``{root}`` stands for the root of the checkout that runs this script
(the record keeps the probe as written). A probe run has
``PROBE_LIMIT_S`` seconds; one past it is ended by ``SIGALRM`` and
recorded as timed out, with no seconds. A record holds, per probe and run,
the exit code, the raw, reference and scaled seconds and the interpreter's
peak RSS (``ru_maxrss``, in MB), or ``timed_out``; and per probe the count
of runs timed out and the medians of the runs that finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "exceptional", "genus0")
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SEEDS = tuple(range(9201, 9211))  # none of them used while tuning the code
CLAIM_RUNS = 5
REFERENCE_RUNS = 3  # reference loops timed before each claim run
PROBES = ("family builtin:descent:0:2:11:3", "family builtin:descent:0:2:13:6",
          "family builtin:dickson:1000:1",
          "sweep --function builtin:cm7 --bound 2000",
          "sweep --function builtin:redei3comp --bound 30000",
          "sweep --function builtin:dickson:5:1 --bound 30000",
          # many tiny generation-test chains; {root} is this checkout, as a
          # revision's archive may not hold the group file
          "genus0 --group {root}/tools/groups/s6.json")
PROBE_LIMIT_S = 60


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("revs", nargs="+", help="git revisions, run in turn")
    ap.add_argument("--seconds", type=float, default=35)
    return ap.parse_args(argv)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(rev, dest):
    """The committed files of rev, under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout, workload, seed, seconds):
    """One benchmark run: its JSON line, with the metrics as bare values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def _interpreter(checkout, code, check=True):
    """code run in a fresh interpreter with the checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          check=check, capture_output=True, text=True)


def _python(checkout, code):
    """The last line that code prints, run with the checkout's package."""
    return _interpreter(checkout, code).stdout.strip().splitlines()[-1]


def _claim_seconds(checkout, name):
    """{"seconds", "reference_s", "scaled_s"} of one claims.run(name), in a
    fresh interpreter that first times the checkout's reference loop."""
    seconds, ref, reference_s = map(float, _python(checkout, (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "from run import REFERENCE_S, reference; "
        f"ref = min(reference() for _ in range({REFERENCE_RUNS})); "
        "from schurscope import claims; "
        f"print(claims.run({name!r})[2], ref, REFERENCE_S)")).split())
    return {"seconds": seconds, "reference_s": ref,
            "scaled_s": seconds * reference_s / ref}


def _probe_seconds(checkout, probe):
    """{"exit", "seconds", "reference_s", "scaled_s", "peak_rss_mb"} of one
    cli.main(argv) in a fresh interpreter that first times the checkout's
    reference loop, or {"timed_out": True, "reference_s"} when the call runs
    past PROBE_LIMIT_S."""
    proc = _interpreter(checkout, textwrap.dedent(f"""\
        import contextlib, io, resource, signal, sys, time
        sys.path.insert(0, 'perfbench')
        from run import REFERENCE_S, reference
        print(min(reference() for _ in range({REFERENCE_RUNS})), REFERENCE_S,
              flush=True)
        from schurscope.cli import main
        signal.alarm({PROBE_LIMIT_S})
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({probe.format(root=ROOT).split()!r})
        print(code, time.perf_counter() - start,
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """), check=False)
    lines = proc.stdout.split("\n")
    ref, reference_s = map(float, lines[0].split())
    if proc.returncode == -signal.SIGALRM:
        return {"timed_out": True, "reference_s": ref}
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, probe,
                                            proc.stdout, proc.stderr)
    code, seconds, maxrss_kb = lines[1].split()
    return {"exit": int(code), "seconds": float(seconds), "reference_s": ref,
            "scaled_s": float(seconds) * reference_s / ref,
            "peak_rss_mb": int(maxrss_kb) / 1024}


def _finished_medians(rs):
    """The count of timed-out runs, and the medians of the raw and of the
    scaled seconds and of the peak RSS of the others (None when every run
    timed out)."""
    done = [r for r in rs if "seconds" in r]
    out = {"timed_out": len(rs) - len(done)}
    for key, field in (("median", "seconds"), ("scaled_median", "scaled_s"),
                       ("peak_rss_mb_median", "peak_rss_mb")):
        out[key] = statistics.median(r[field] for r in done) if done else None
    return out


def _quartiles(values):
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None):
    args = _args(sys.argv[1:] if argv is None else argv)
    full = {rev: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for rev in args.revs}
    runs = {rev: {w: [] for w in WORKLOADS} for rev in args.revs}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for rev in args.revs:
            checkouts[rev] = Path(tmp) / full[rev]
            checkouts[rev].mkdir(exist_ok=True)
            _extract(full[rev], checkouts[rev])
        for n, seed in enumerate(SEEDS):
            for workload in WORKLOADS:
                # alternate which revision runs first
                for rev in args.revs[::-1] if n % 2 else args.revs:
                    out = _run(checkouts[rev], workload, seed, args.seconds)
                    runs[rev][workload].append({"seed": seed, **out})
                    print(f"{full[rev][:12]} {workload} seed {seed}: "
                          f"{json.dumps(out['metrics'])}", file=sys.stderr)
        names = {rev: _python(checkouts[rev], "from schurscope import claims; "
                                              "print(' '.join(claims.CLAIMS))"
                              ).split() for rev in args.revs}
        claims = {rev: {name: [] for name in names[rev]} for rev in args.revs}
        for n in range(CLAIM_RUNS):
            for name in dict.fromkeys(x for rev in args.revs for x in names[rev]):
                for rev in args.revs[::-1] if n % 2 else args.revs:
                    if name not in claims[rev]:
                        continue
                    run = _claim_seconds(checkouts[rev], name)
                    claims[rev][name].append(run)
                    print(f"{full[rev][:12]} claim {name}: "
                          f"{run['seconds']:.3f} s, scaled "
                          f"{run['scaled_s']:.3f} s", file=sys.stderr)
        probes = {rev: {probe: [] for probe in PROBES} for rev in args.revs}
        for n in range(CLAIM_RUNS):
            for probe in PROBES:
                for rev in args.revs[::-1] if n % 2 else args.revs:
                    run = _probe_seconds(checkouts[rev], probe)
                    probes[rev][probe].append(run)
                    said = (f"timed out after {PROBE_LIMIT_S} s"
                            if run.get("timed_out") else
                            f"exit {run['exit']}, {run['seconds']:.3f} s, "
                            f"scaled {run['scaled_s']:.3f} s, "
                            f"{run['peak_rss_mb']:.1f} MB")
                    print(f"{full[rev][:12]} probe {probe}: {said}",
                          file=sys.stderr)
    host = {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}
    for rev in args.revs:
        record = {
            "revision": full[rev],
            "alternated_with": [full[r] for r in args.revs if r != rev],
            "seeds": list(SEEDS),
            "seconds": args.seconds,
            "host": host,
            "workloads": {
                w: {"runs": rs,
                    "summary": {m: _quartiles([r["metrics"][m] for r in rs])
                                for m in METRICS}}
                for w, rs in runs[rev].items()},
            "claims": {name: {
                "runs": rs,
                "median": statistics.median(r["seconds"] for r in rs),
                "scaled_median": statistics.median(r["scaled_s"] for r in rs)}
                for name, rs in claims[rev].items()},
            "probe_limit_s": PROBE_LIMIT_S,
            "probes": {probe: {"runs": rs, **_finished_medians(rs)}
                       for probe, rs in probes[rev].items()},
        }
        path = ROOT / f"BENCH_{full[rev][:7]}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
