"""Direct timings of the permutation kernel: compose, inverse and sift
(``PermGroup.contains`` on a built chain) on seeded permutations.

Each figure is the median of ``SAMPLES`` timed calls, with the 99th
percentile: with 1000 samples, ten lie beyond it.  The sift runs on a
seeded relabelling of the dihedral group of degree n, whose chain has two
levels (n points, then 2) whatever the labels, and sifts members of it.
"""

from __future__ import annotations

import random
import statistics
import time

from schurscope import permcore

SAMPLES = 1000
DEGREES = (496, 1296)


def _timed(fn, args):
    out = []
    clock = time.perf_counter_ns
    for a in args:
        t0 = clock()
        fn(*a)
        out.append(clock() - t0)
    return out


def _summary(ns):
    cuts = statistics.quantiles(ns, n=100)
    return statistics.median(ns) / 1e3, cuts[98] / 1e3


def measure(seed):
    rng = random.Random(seed)
    metrics = {"permcore.kernel.samples": SAMPLES}
    for n in DEGREES:
        def perm():
            images = list(range(n))
            rng.shuffle(images)
            return permcore.Perm(images)

        perms = [perm() for _ in range(64)]
        pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(SAMPLES)]
        compose = _timed(lambda a, b: a * b, pairs)
        inverse = _timed(lambda a: a.inverse(), [(a,) for a, _ in pairs])

        sigma = perm()
        rot = permcore.Perm([sigma.images[(sigma.inverse().images[i] + 1) % n]
                             for i in range(n)])
        ref = permcore.Perm([sigma.images[-sigma.inverse().images[i] % n]
                             for i in range(n)])
        D = permcore.PermGroup(n, [rot, ref])
        if D.order != 2 * n:
            raise RuntimeError(f"dihedral group of degree {n} has order "
                               f"{D.order}")
        members = [(rot ** rng.randrange(n) * ref ** rng.randrange(2),)
                   for _ in range(SAMPLES)]
        contains = _timed(D.contains, members)

        for op, ns in (("compose", compose), ("inverse", inverse),
                       ("contains", contains)):
            med, p99 = _summary(ns)
            metrics[f"permcore.{op}.us.n{n}"] = med
            metrics[f"permcore.{op}.us.n{n}.p99"] = p99
    return metrics
