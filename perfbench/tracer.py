"""Spans around schurscope's public entry points, installed from outside the
package for the traced run, and the per-layer metrics computed from them.

A span records its name, start, end, parent span and a few counts.  Spans
stay in memory until the run ends and are then written out as JSON lines.
A span's self time is its duration minus that of its child spans (one
thread, so children never overlap), and a layer's self time is the sum over
its spans; the layer is the first part of the span's name.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from schurscope import exceptio, permcore, projmap, ramgenus

LAYERS = ("exactalg", "projmap", "permcore", "exceptio", "ramgenus", "bench")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns, counts]
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name,
               time.perf_counter_ns(), None, counts]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield counts
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter_ns()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "end_ns": end, **counts}) + "\n")

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if after is not None:
                    counts.update(after(result))
                return result
        return wrapper

    def _targets(self):
        """(owner, attribute, replacement) for every wrapped entry point."""
        tr = self
        build_chain = permcore.PermGroup._build_chain
        elements = permcore.PermGroup.elements
        coset_init = permcore.CosetAction.__init__
        is_bijective = projmap.is_bijective

        def chain(self_):
            if self_._chain is not None:  # built already: no work, no span
                return build_chain(self_)
            with tr.span("permcore.chain_build"):
                return build_chain(self_)

        def elems(self_, *args, **kwargs):
            if self_._elements is not None:
                return elements(self_, *args, **kwargs)
            with tr.span("permcore.elements") as counts:
                out = elements(self_, *args, **kwargs)
                counts["count"] = len(out)
                return out

        def coset(self_, *args, **kwargs):
            with tr.span("permcore.coset_action") as counts:
                coset_init(self_, *args, **kwargs)
                counts["index"] = self_.index

        def bijective(f, *args, **kwargs):
            field = f.field
            kind = "fp" if field.ext == 1 else "fq2"
            with tr.span(f"projmap.is_bijective.{kind}") as counts:
                out = is_bijective(f, *args, **kwargs)
                counts["points"] = field.order + 1
                return out

        classes = self._wrap(permcore.conjugacy_classes,
                             "permcore.conjugacy_classes",
                             lambda r: {"count": len(r)})
        pairs = self._wrap(permcore.orbits_on_pairs, "permcore.orbits_on_pairs",
                           lambda r: {"pairs": r.n * r.n})
        out = [
            (permcore.PermGroup, "_build_chain", chain),
            (permcore.PermGroup, "elements", elems),
            (permcore.CosetAction, "__init__", coset),
            (permcore, "conjugacy_classes", classes),
            (ramgenus, "conjugacy_classes", classes),
            (permcore, "orbits_on_pairs", pairs),
            (exceptio, "orbits_on_pairs", pairs),
            (projmap, "is_bijective", bijective),
            (projmap, "reduce_mod_place",
             self._wrap(projmap.reduce_mod_place, "exactalg.reduce_mod_place")),
            (ramgenus, "genus0_search",
             self._wrap(ramgenus.genus0_search, "ramgenus.genus0_search",
                        lambda r: {"types": len(r)})),
        ]
        for mod, names in ((projmap, ("sweep_prime", "schur_sweep")),
                           (permcore, ("psl2", "psl2_torus_coset_action",
                                       "psl2_sylow2_coset_action")),
                           (exceptio, ("is_exceptional",
                                       "is_arithmetically_exceptional",
                                       "chi_fixed_points",
                                       "build_wreath_diagonal_example"))):
            layer = mod.__name__.rsplit(".", 1)[1]
            for n in names:
                out.append((mod, n, self._wrap(getattr(mod, n),
                                               f"{layer}.{n}")))
        return out

    @contextmanager
    def installed(self):
        """Wrap the entry points for the duration of the block."""
        saved = []
        try:
            for owner, attr, repl in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, repl)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` traced rounds; times and
    counts are per round, except the per-call and per-point figures."""
    children_ns = [0] * len(spans)
    op_of = [None] * len(spans)  # name of the bench operation above a span
    for sid, parent, name, start, end, counts in spans:
        if parent is not None:
            children_ns[parent] += end - start
            op_of[sid] = op_of[parent]
        elif name.startswith("bench."):
            op_of[sid] = name[len("bench."):]

    by_name = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    for sid, parent, name, start, end, counts in spans:
        d = by_name.setdefault(name, {"ns": 0, "calls": 0})
        d["ns"] += end - start
        d["calls"] += 1
        for k, v in counts.items():
            d[k] = d.get(k, 0) + v
        self_ns[name.split(".", 1)[0]] += end - start - children_ns[sid]

    def get(name, key="ns"):
        return by_name.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    # points and sweep time by operation: the F_p families against cm7
    points = {"fp": 0, "fq2": 0}
    sweep_ns = {"fp": 0, "fq2": 0}
    for sid, parent, name, start, end, counts in spans:
        kind = (op_of[sid] or "").split(":", 1)[0]
        if kind not in points:
            continue
        if name.startswith("projmap.is_bijective"):
            points[kind] += counts.get("points", 0)
        elif name == "projmap.schur_sweep":
            sweep_ns[kind] += end - start

    # chain builds below a genus-0 search; is_exceptional calls below an
    # arithmetic verdict
    names = [s[2] for s in spans]

    def below(sid, ancestor):
        parent = spans[sid][1]
        while parent is not None:
            if names[parent] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    generation_tests = sum(1 for s in spans if s[2] == "permcore.chain_build"
                           and below(s[0], "ramgenus.genus0_search"))
    cosets_tried = sum(1 for s in spans if s[2] == "exceptio.is_exceptional"
                       and s[1] is not None
                       and names[s[1]] == "exceptio.is_arithmetically_exceptional")
    per_round = 1.0 / rounds
    s = 1e-9 * per_round
    m = {
        "exactalg.reduce_mod_place.us":
            ratio(get("exactalg.reduce_mod_place") / 1e3,
                  get("exactalg.reduce_mod_place", "calls")),
        "exactalg.reduce_mod_place.calls":
            get("exactalg.reduce_mod_place", "calls") * per_round,
        "projmap.is_bijective.fp.ns_per_point":
            ratio(get("projmap.is_bijective.fp"),
                  get("projmap.is_bijective.fp", "points")),
        "projmap.points.fp":
            get("projmap.is_bijective.fp", "points") * per_round,
        "projmap.is_bijective.fq2.ns_per_point":
            ratio(get("projmap.is_bijective.fq2"),
                  get("projmap.is_bijective.fq2", "points")),
        "projmap.points.fq2":
            get("projmap.is_bijective.fq2", "points") * per_round,
        "projmap.schur_sweep.s": get("projmap.schur_sweep") * s,
        "projmap.fp_points_per_s": ratio(points["fp"], sweep_ns["fp"] * 1e-9),
        "projmap.fq2_points_per_s":
            ratio(points["fq2"], sweep_ns["fq2"] * 1e-9),
        "permcore.chain_build.s": get("permcore.chain_build") * s,
        "permcore.chain_build.calls":
            get("permcore.chain_build", "calls") * per_round,
        "permcore.elements.s": get("permcore.elements") * s,
        "permcore.elements.count":
            get("permcore.elements", "count") * per_round,
        "permcore.conjugacy_classes.s": get("permcore.conjugacy_classes") * s,
        "permcore.conjugacy_classes.count":
            get("permcore.conjugacy_classes", "count") * per_round,
        "permcore.coset_action.s": get("permcore.coset_action") * s,
        "permcore.coset_action.index":
            get("permcore.coset_action", "index") * per_round,
        "permcore.orbits_on_pairs.s": get("permcore.orbits_on_pairs") * s,
        "permcore.orbits_on_pairs.pairs":
            get("permcore.orbits_on_pairs", "pairs") * per_round,
        "exceptio.is_exceptional.s": get("exceptio.is_exceptional") * s,
        "exceptio.is_arithmetically_exceptional.s":
            get("exceptio.is_arithmetically_exceptional") * s,
        "exceptio.cosets_tried":
            ratio(cosets_tried,
                  get("exceptio.is_arithmetically_exceptional", "calls")),
        "exceptio.chi_fixed_points.s": get("exceptio.chi_fixed_points") * s,
        "ramgenus.genus0_search.s": get("ramgenus.genus0_search") * s,
        "ramgenus.genus0_search.types":
            get("ramgenus.genus0_search", "types") * per_round,
        "ramgenus.generation_tests": generation_tests * per_round,
        "trace.spans": len(spans) * per_round,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_ns[layer] * s
    return m
