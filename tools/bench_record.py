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
as for the workloads; a record holds every run's seconds and their median
per claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "exceptional", "genus0")
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SEEDS = tuple(range(9201, 9211))  # none of them used while tuning the code
CLAIM_RUNS = 3


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


def _python(checkout, code):
    """The last line that code prints, run with the checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          check=True, capture_output=True, text=True)
    return proc.stdout.strip().splitlines()[-1]


def _claim_seconds(checkout, name):
    """The seconds of one claims.run(name), in a fresh interpreter."""
    return float(_python(checkout, "from schurscope import claims; "
                                   f"print(claims.run({name!r})[2])"))


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
                    seconds = _claim_seconds(checkouts[rev], name)
                    claims[rev][name].append(seconds)
                    print(f"{full[rev][:12]} claim {name}: {seconds:.3f} s",
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
            "claims": {name: {"seconds": s, "median": statistics.median(s)}
                       for name, s in claims[rev].items()},
        }
        path = ROOT / f"BENCH_{full[rev][:7]}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
