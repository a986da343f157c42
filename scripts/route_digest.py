#!/usr/bin/env python3
"""One sha256 per black-box route over the benchmark's circuits.

Every circuit of the three benchmark workloads (``bench/gen.py``), every
block of their chains and the flat composite of each chain that the
benchmark also checks goes through the four routes: ``blackbox``,
``blackbox_categorical``, ``oracle_behavior`` and ``blackbox_fast``.  Each
route's printed relations, in a fixed order, feed one digest.  A fifth
digest covers the compositional analysis of every chain: its blocks'
behaviors folded with ``compose_relations`` (``tensor_relations`` side by
side, and a mirrored chain composed with its dagger) by ``bench/run.py``'s
``analyse``, the fold that the benchmark times.  The flat composites come
from its ``flatten``.  A sixth digest, ``netlists``, covers
``print_netlist`` of every circuit, block and flat composite, and a seventh,
``cli_json``, the JSON text that ``blackbox --json`` prints for each of
them: ``json.dumps`` of ``behavior_to_json`` of its ``blackbox`` relation.
Two checkouts whose digests agree print byte-identical behaviors, netlists
and JSON on all of it.  The engine is imported from this checkout's ``src``,
whatever ``blackbox`` is installed.

    python3 scripts/route_digest.py --seeds 1,5,7
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import run  # noqa: E402

import blackbox as engine  # noqa: E402
from blackbox import (  # noqa: E402
    blackbox,
    blackbox_categorical,
    blackbox_fast,
    oracle_behavior,
    parse_netlist,
    print_netlist,
)
from blackbox.behavior import behavior_to_json  # noqa: E402

ROUTES = {
    "blackbox": blackbox,
    "blackbox_categorical": blackbox_categorical,
    "oracle_behavior": oracle_behavior,
    "blackbox_fast": blackbox_fast,
}


def circuits(workload):
    """(name, circuit) for every circuit, block and checked flat composite."""
    out = [(net.name, parse_netlist(gen.netlist_text(net))) for net in workload.circuits]
    for chain in workload.chains:
        blocks = [parse_netlist(gen.netlist_text(b)) for b in chain.blocks]
        out += [(f"{chain.name}/{k}", g) for k, g in enumerate(blocks)]
        if chain.flat_verbs:
            out.append((f"{chain.name}/flat", run.flatten(engine, chain.combinator, blocks)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,5,7", help="comma-separated workload seeds")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    digests = {name: hashlib.sha256()
               for name in [*ROUTES, "compose_folds", "netlists", "cli_json"]}
    for seed in seeds:
        for wname, make in gen.WORKLOADS.items():
            workload = make(seed)
            for name, g in circuits(workload):
                head = f"{wname} {seed} {name}\n"
                rels = {route: fn(g) for route, fn in ROUTES.items()}
                for route, rel in rels.items():
                    digests[route].update(f"{head}{rel.pretty()}\n".encode())
                digests["netlists"].update(f"{head}{print_netlist(g)}".encode())
                doc = json.dumps(behavior_to_json(g, rels["blackbox"]))
                digests["cli_json"].update(f"{head}{doc}\n".encode())
            for chain in workload.chains:
                blocks = [parse_netlist(gen.netlist_text(b)) for b in chain.blocks]
                rel = run.analyse(engine, chain.combinator, blocks)
                digests["compose_folds"].update(
                    f"{wname} {seed} {chain.name}\n{rel.pretty()}\n".encode())
    for name, h in digests.items():
        print(f"{name} {h.hexdigest()}")


if __name__ == "__main__":
    main()
