#!/usr/bin/env python3
"""Cold import time of the command-line front end, module by module.

    python3 scripts/import_cost.py --runs 5
    python3 scripts/import_cost.py --runs 20 --other ../parent-checkout

Runs ``python -X importtime -c "import blackbox.cli"`` the given number of
times, each in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1.  The
engine is this checkout's ``src/blackbox``, copied without its
``__pycache__`` into a temporary directory that is the working directory
and the only entry of PYTHONPATH, so every run compiles the engine from
source, as a benchmark set-up in a fresh checkout does; the standard
library keeps its bytecode.

Prints the median over the runs of each ``blackbox.*`` module's self time,
their sum, and the cumulative time of ``blackbox.cli``, which also counts
the standard-library modules that the import loads first.

With ``--other CHECKOUT`` the engine of that checkout is timed too, in
runs that alternate with this checkout's (this one first in even rounds,
the other first in odd ones), so that a drift of the machine reaches both
alike.  Each line then holds this checkout's median and the other's, side
by side; "-" marks a module that one engine does not have.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_times(stderr):
    """{module: (self us, cumulative us)} from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if own.strip().isdigit():
            out[name.strip()] = (int(own), int(cumulative))
    return out


def cold_run(path):
    """The import times of one cold ``import blackbox.cli`` run in ``path``,
    the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import blackbox.cli"],
                          cwd=path, env=env, capture_output=True, text=True, timeout=120, check=True)
    return import_times(proc.stderr)


def engine_modules(run):
    return [m for m in run if m == "blackbox" or m.startswith("blackbox.")]


SELF_SUM, CLI_TOTAL = "blackbox.* self sum", "blackbox.cli total"


def medians(runs):
    """{line label: median ms} over ``runs``: each engine module's self
    time, their sum and the cumulative time of ``blackbox.cli``."""
    modules = engine_modules(runs[0])
    out = {m: statistics.median(run[m][0] for run in runs) / 1000 for m in modules}
    out[SELF_SUM] = statistics.median(sum(run[m][0] for m in modules) for run in runs) / 1000
    out[CLI_TOTAL] = statistics.median(run["blackbox.cli"][1] for run in runs) / 1000
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="cold imports to take the median of")
    ap.add_argument("--other", type=Path, metavar="CHECKOUT",
                    help="a second checkout whose engine is timed in alternating runs")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    roots = [ROOT] if args.other is None else [ROOT, args.other]
    for root in roots[1:]:
        if not (root / "src" / "blackbox" / "cli.py").is_file():
            ap.error(f"{root} has no src/blackbox/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for k, root in enumerate(roots):
            tree = Path(tmp) / str(k)
            shutil.copytree(root / "src" / "blackbox", tree / "blackbox",
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees.append(tree)
        runs = [[] for _ in trees]
        for r in range(args.runs):
            for k in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                runs[k].append(cold_run(trees[k]))
    tables = [medians(tree_runs) for tree_runs in runs]
    modules = sorted({m for tree_runs in runs for m in engine_modules(tree_runs[0])})
    if args.other is None:
        print(f"import blackbox.cli: median of {args.runs} cold runs (ms)")
    else:
        print(f"import blackbox.cli: median of {args.runs} cold runs of each engine (ms), "
              f"this checkout then {args.other}")

    def row(label, kind):
        cells = " ".join(f"{table[label]:8.2f}" if label in table else f"{'-':>8}"
                         for table in tables)
        print(f"{label:<20} {kind:<4} {cells}")

    for module in modules:
        row(module, "self")
    row(SELF_SUM, "")
    row(CLI_TOTAL, "")


if __name__ == "__main__":
    main()
