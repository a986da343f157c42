#!/usr/bin/env python3
"""Randomized sweep of the categorical laws, with timing.

Checks, on freshly sampled circuits, that composing then black-boxing equals
black-boxing then composing (same for tensor and dagger), and that the
production black box, the fast path and the Kirchhoff oracle all agree with
the categorical composite.  Every failure would raise, so a clean run is
the report.  The engine is imported from this checkout's ``src``.

    python scripts/law_sweep.py --pairs 200 --nodes 7 --edges 8 --seed 1
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from blackbox import (  # noqa: E402
    blackbox,
    blackbox_categorical,
    blackbox_fast,
    compose_circuits,
    compose_relations,
    dagger_circuit,
    dagger_relation,
    oracle_behavior,
    tensor_circuits,
    tensor_relations,
)
from util import rand_circuit, rand_composable_pair  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--nodes", type=int, default=6)
    ap.add_argument("--edges", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    for k in range(args.pairs):
        g1, g2 = rand_composable_pair(rng, max_nodes=args.nodes, max_edges=args.edges)
        assert blackbox(compose_circuits(g1, g2)) == compose_relations(
            blackbox(g1), blackbox(g2)
        ), f"functoriality failed on pair {k}"
        assert blackbox(tensor_circuits(g1, g2)) == tensor_relations(
            blackbox(g1), blackbox(g2)
        ), f"monoidality failed on pair {k}"
        assert blackbox(dagger_circuit(g1)) == dagger_relation(
            blackbox(g1)
        ), f"dagger failed on pair {k}"
    t_laws = time.monotonic() - t0

    t0 = time.monotonic()
    for k in range(args.pairs):
        g = rand_circuit(rng, max_nodes=args.nodes, max_edges=args.edges)
        ref = blackbox_categorical(g)
        assert blackbox(g) == ref, f"elimination route disagrees on circuit {k}"
        assert blackbox_fast(g) == ref, f"fast path disagrees on circuit {k}"
        assert oracle_behavior(g) == ref, f"oracle disagrees on circuit {k}"
    t_triple = time.monotonic() - t0

    print(f"{args.pairs} pairs: functoriality+monoidal+dagger ok in {t_laws:.2f}s")
    print(f"{args.pairs} circuits: four-route agreement ok in {t_triple:.2f}s")


if __name__ == "__main__":
    main()
