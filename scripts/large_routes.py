#!/usr/bin/env python3
"""Every black-box route timed on larger circuits, with exact agreement.

    python3 scripts/large_routes.py
    python3 scripts/large_routes.py --circuits rc-ladder-64,rlc-mesh-5 --runs 3
    python3 scripts/large_routes.py --circuits rlc-mesh-5-columns,rlc-mesh-6-columns

The circuits are ``bench/gen.py``'s ladders and meshes: an RC ladder
``ladder("l", N, "R", "C", Random(0))``, and a mesh
``mesh("m", k, kinds, Random(0))`` whose edge kinds are drawn by a second
``Random(0)`` as ``choice("RLC")`` per edge, or are all ``R``.  Each goes
through the four routes, ``blackbox``, ``blackbox_categorical``,
``blackbox_fast`` and ``oracle_behavior``, one after another in this
process; the script exits 1 if any route's relation differs from
``blackbox``'s.  It prints one markdown row per circuit with each route's
wall-clock time in seconds: a single time, or min–max over ``--runs``.

The ``-columns`` rows time compositional analysis on the RLC meshes: the
mesh is cut into its columns (``bench/gen.py::mesh_columns``), each column
is black-boxed and the relations are folded left to right with
``compose_relations``, as ``bench/run.py::analyse`` does.  They print a
second table, the flat ``blackbox`` of the whole mesh beside that relation
fold, and the script exits 1 if the two differ.

The engine is imported from this checkout's ``src``, whatever
``blackbox`` is installed.
"""

import argparse
import random
import sys
import time
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402

from blackbox import (  # noqa: E402
    blackbox,
    blackbox_categorical,
    blackbox_fast,
    compose_relations,
    oracle_behavior,
    parse_netlist,
)

ROUTES = {
    "`blackbox`": blackbox,
    "categorical": blackbox_categorical,
    "`blackbox_fast`": blackbox_fast,
    "oracle": oracle_behavior,
}


def rc_ladder(rungs):
    return gen.ladder("l", rungs, "R", "C", random.Random(0))


def mesh(side, rlc):
    kr = random.Random(0)
    kinds = [kr.choice("RLC") if rlc else "R" for _ in range(2 * side * (side - 1))]
    return gen.mesh("m", side, kinds, random.Random(0))


# name -> (table label, net builder), smallest first within each family.
CIRCUITS = {
    "rc-ladder-64": ("64-rung RC ladder", lambda: rc_ladder(64)),
    "rc-ladder-96": ("96-rung RC ladder", lambda: rc_ladder(96)),
    "rc-ladder-128": ("128-rung RC ladder", lambda: rc_ladder(128)),
    "rlc-mesh-5": ("5×5 RLC mesh", lambda: mesh(5, True)),
    "rlc-mesh-6": ("6×6 RLC mesh", lambda: mesh(6, True)),
    "rlc-mesh-7": ("7×7 RLC mesh", lambda: mesh(7, True)),
    "r-mesh-14": ("14×14 R mesh", lambda: mesh(14, False)),
    "r-mesh-20": ("20×20 R mesh", lambda: mesh(20, False)),
}

# name -> (table label, side of the RLC mesh that is cut into its columns).
FOLDS = {f"rlc-mesh-{k}-columns": (f"{k}×{k}", k) for k in (5, 6, 7)}


def relation_fold(blocks):
    """Compositional analysis: black-box each block, fold with ``compose_relations``."""
    return reduce(compose_relations, [blackbox(g) for g in blocks])


def timed(fn, g, runs):
    """(the relation, each run's seconds)."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        rel = fn(g)
        times.append(time.perf_counter() - start)
    return rel, times


def cell(times):
    lo, hi = min(times), max(times)
    return f"{lo:.3g} s" if len(times) == 1 else f"{lo:.3g}–{hi:.3g} s"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--circuits", default=",".join([*CIRCUITS, *FOLDS]),
                    help=f"comma-separated subset of: {', '.join([*CIRCUITS, *FOLDS])}")
    ap.add_argument("--runs", type=int, default=1, help="timed runs per route and circuit")
    args = ap.parse_args()
    names = args.circuits.split(",")
    unknown = [n for n in names if n not in CIRCUITS and n not in FOLDS]
    if unknown or args.runs < 1:
        ap.error(f"unknown circuits {unknown}" if unknown else "--runs must be at least 1")

    circuits = [n for n in names if n in CIRCUITS]
    if circuits:
        print("| circuit | " + " | ".join(ROUTES) + " |")
        print("|---" * (len(ROUTES) + 1) + "|")
    for name in circuits:
        label, build = CIRCUITS[name]
        g = parse_netlist(gen.netlist_text(build()))
        results = {route: timed(fn, g, args.runs) for route, fn in ROUTES.items()}
        print(f"| {label} | " + " | ".join(cell(t) for _, t in results.values()) + " |", flush=True)
        expected = results["`blackbox`"][0]
        wrong = [route for route, (rel, _) in results.items() if rel != expected]
        for route in wrong:
            print(f"{label}: {route} disagrees with `blackbox`", file=sys.stderr)
        if wrong:
            return 1

    folds = [n for n in names if n in FOLDS]
    if folds:
        print("| mesh columns | flat `blackbox` | relation fold |")
        print("|---|---|---|")
    for name in folds:
        label, side = FOLDS[name]
        net = mesh(side, True)
        g = parse_netlist(gen.netlist_text(net))
        blocks = [parse_netlist(gen.netlist_text(b)) for b in gen.mesh_columns(net, side)]
        flat, flat_times = timed(blackbox, g, args.runs)
        fold, fold_times = timed(relation_fold, blocks, args.runs)
        print(f"| {label} | {cell(flat_times)} | {cell(fold_times)} |", flush=True)
        if fold != flat:
            print(f"{label} mesh columns: the relation fold disagrees with `blackbox`",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
