"""Command-line front end: prime sweeps, exceptionality verdicts, genus
computations, genus-0 searches, the text of a function, and `verify-paper`,
which prints the rows of the claims in `schurscope.claims`."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exactalg import format_ratfunc, parse_ratfunc
from .projmap import schur_sweep
from .funfam import builtin_function
from .permcore import DEGREE_CAP, Perm, PermGroup
from . import claims, exceptio, ramgenus


def load_function(spec):
    """A function argument: builtin:..., a file path, or literal text."""
    if spec.startswith("builtin:"):
        return builtin_function(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_ratfunc(fh.read().strip())
    return parse_ratfunc(spec)


def load_group(path):
    """A group file: {"degree": n, "generators": [[images], ...]}, with
    0 <= n <= DEGREE_CAP; any other shape raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a group file holds a JSON object")
    degree, gens = data.get("degree"), data.get("generators")
    if type(degree) is not int or not 0 <= degree <= DEGREE_CAP:
        raise ValueError(f"{path}: degree must be an integer in "
                         f"[0, {DEGREE_CAP}]")
    if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(type(x) is int for x in g)
            for g in gens):
        raise ValueError(f"{path}: generators must be a list of integer lists")
    return PermGroup(degree, [Perm(g) for g in gens])


# ---------------------------------------------------------------------------
# subcommand handlers

def _emit(text, path):
    """Print text, or write it to path when one is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_sweep(args):
    f = load_function(args.function)
    rep = schur_sweep(f, args.bound)
    _emit(json.dumps(rep.to_dict(args.function), indent=2), args.out)
    return 0


def cmd_exceptional(args):
    A = load_group(args.group)
    G = load_group(args.normal)
    if args.arith:
        v = exceptio.is_arithmetically_exceptional(A, G)
        doc = {"arithmetically_exceptional": v.arithmetically_exceptional,
               "witness": list(v.witness.images) if v.witness else None}
    else:
        v = exceptio.is_exceptional(A, G)
        doc = {"exceptional": v.exceptional, "common_orbits": v.r,
               "witness": list(v.witness) if v.witness else None}
    print(json.dumps(doc, indent=2))
    return 0


def cmd_genus(args):
    t = tuple(int(x) for x in args.type.split(","))
    g = ramgenus.regular_genus(t, args.order)
    kind, case = ramgenus.classify_type(t)
    doc = {"type": list(t), "order": args.order, "genus": g,
           "classification": kind}
    if case:
        doc["case"] = case
    print(json.dumps(doc, indent=2))
    return 0


def cmd_genus0(args):
    G = load_group(args.group)
    types = ramgenus.genus0_search(G, r_max=args.rmax)
    print(json.dumps({"degree": G.degree, "order": G.order,
                      "types": [list(t) for t in types]}, indent=2))
    return 0


def cmd_family(args):
    _emit(format_ratfunc(load_function(args.spec)), args.out)
    return 0


def cmd_verify_paper(args):
    unknown = [name for name in args.targets if name not in claims.CLAIMS]
    if unknown:
        raise ValueError(f"unknown target {', '.join(unknown)}; choose from "
                         f"{', '.join(claims.CLAIMS)}")
    all_ok = True
    for name in args.targets or claims.CLAIMS:
        print(f"== {name} ==")
        rows, failed, seconds = claims.run(name)
        for row in rows:
            what, observed, expected = row
            mark = "  MISMATCH" if row in failed else ""
            print(f"  {what}: {observed} (expected {expected}){mark}")
        verdict = "FAILED" if failed else "ok"
        print(f"== {name}: {verdict} in {seconds:.2f} s ==")
        all_ok &= not failed
    return 0 if all_ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="schurscope",
        description="rational functions that permute the projective line "
                    "modulo infinitely many primes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sweep", help="test bijectivity mod every odd prime up to a bound")
    p.add_argument("--function", required=True,
                   help="builtin:NAME:ARGS, a file, or literal text")
    p.add_argument("--bound", type=int, default=500)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("exceptional", help="common-orbit exceptionality test")
    p.add_argument("--group", required=True, help="JSON file for A")
    p.add_argument("--normal", required=True, help="JSON file for G")
    p.add_argument("--arith", action="store_true")
    p.set_defaults(fn=cmd_exceptional)

    p = sub.add_parser("genus", help="regular genus of a ramification type")
    p.add_argument("--type", required=True, help="comma-separated, e.g. 2,3,8")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("genus0", help="search genus-0 generating systems")
    p.add_argument("--group", required=True)
    p.add_argument("--rmax", type=int, default=5)
    p.set_defaults(fn=cmd_genus0)

    p = sub.add_parser("family", help="print a function in text form")
    p.add_argument("spec", help="builtin:NAME:ARGS, a file, or literal text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify-paper",
                       help="recompute the headline tables and verdicts")
    p.add_argument("targets", nargs="*",
                   help=f"any of {', '.join(claims.CLAIMS)}; default all, "
                        f"in that order")
    p.set_defaults(fn=cmd_verify_paper)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        # argparse stores [] for a lone "--" value, as in --function=--
        for name, value in vars(args).items():
            if isinstance(value, list) and name != "targets":
                raise ValueError(f"--{name} needs a value")
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
