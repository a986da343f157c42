#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized per end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload corpus \\
        --seeds 901,902,903 --seconds 30 --out BENCH_8.json

For each seed, ``bench/run.py --workload W --seed S --seconds T`` runs once in
each checkout, one process at a time, each from its own directory so that it
builds from that checkout's sources.  Each run gets PYTHONDONTWRITEBYTECODE=1,
as on the benchmark machine: no bytecode is cached, so a stale
``__pycache__`` in either checkout cannot hide compile time from ``setup_s``.
The order alternates: the parent runs first in the first pair, the change in
the second, and so on.  Each run's last stdout line is its JSON result.

For every end-to-end metric named in ``BENCHMARK.json`` the summary holds the
parent's and the change's medians and quartiles, the pairs the change won
(strictly better in the metric's direction), the raw values in seed order and
two verdicts:

* ``gain``: the change won at least nine in ten pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
* ``within_bound``: the change's median is no worse than the parent's by more
  than the metric's ``bound``, read as a fraction of the parent's median.

One line per metric prints these.  With ``--out`` the summary is stored under
``workloads[W]`` of that JSON file, so one file can collect several workloads;
other workloads in it are kept, and ``--note`` sets its ``note``, which then
also names the environment the runs got.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def end_to_end_metrics():
    """{metric: ("lower" or "higher", bound)} for the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def last_json(stdout):
    """The JSON object on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, third quartile), each equal to the value if only one."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, metrics):
    """Per-metric summary of (parent result, change result) pairs, each the
    JSON object a ``bench/run.py`` run printed last."""
    out = {}
    for name, (better, bound) in metrics.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        pmed, cmed = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        gap = pmed - cmed if better == "lower" else cmed - pmed  # > 0 when the change is better
        out[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": better,
            "bound": bound,
            "parent_median": pmed,
            "parent_quartiles": (q1, q3),
            "change_median": cmed,
            "change_quartiles": quartiles(change),
            "pairs_won": won,
            "pairs": len(pairs),
            "gain": 10 * won >= 9 * len(pairs) and gap > q3 - q1,
            "within_bound": -gap <= bound * abs(pmed),
            "parent": parent,
            "change": change,
        }
    return {
        "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "failed": sum(p["failed"] + c["failed"] for p, c in pairs),
        "metrics": out,
    }


def report(name, m):
    """One line: parent median [quartiles] -> change median, pairs won, verdicts."""
    q1, q3 = m["parent_quartiles"]
    pmed, cmed = m["parent_median"], m["change_median"]
    rel = f" ({(cmed - pmed) / pmed:+.1%})" if pmed else ""
    return (f"{name}: {pmed:.4g} [{q1:.4g}, {q3:.4g}] -> {cmed:.4g} {m['unit']}{rel}, "
            f"{m['pairs_won']} of {m['pairs']} pairs won, gain {'yes' if m['gain'] else 'no'}, "
            f"within bound {m['bound']:g}: {'yes' if m['within_bound'] else 'NO'}")


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, **RUN_ENV},
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout} (seed {seed}):\n{proc.stderr}")
    return last_json(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, help="JSON file to store the summary in")
    ap.add_argument("--note", help="what is compared, stored as the file's note")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    pairs = []
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {side: run(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"seed {seed} ({' first, '.join(order)} second): " + ", ".join(
            f"{name} {got['parent']['metrics'][name]['value']:.4g} -> "
            f"{got['change']['metrics'][name]['value']:.4g}"
            for name in ("check_p50_ms", "behavior_p50_ms", "compose_p50_ms")), flush=True)

    summary = summarize(pairs, end_to_end_metrics())
    summary.update(seeds=seeds, seconds=args.seconds, python=platform.python_version())
    for name, m in summary["metrics"].items():
        print(report(name, m))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        if args.note:
            env = " ".join(f"{k}={v}" for k, v in RUN_ENV.items())
            doc["note"] = f"{args.note} Each run had {env} set."
        doc.setdefault("workloads", {})[args.workload] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
