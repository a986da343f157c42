#!/usr/bin/env python3
"""Cold import time of the command-line front end, module by module.

    python3 scripts/import_cost.py --runs 5

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="cold imports to take the median of")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "blackbox", Path(tmp) / "blackbox",
                        ignore=shutil.ignore_patterns("__pycache__"))
        runs = [cold_run(tmp) for _ in range(args.runs)]
    modules = sorted(m for m in runs[0] if m == "blackbox" or m.startswith("blackbox."))

    def median_ms(module, field):
        return statistics.median(run[module][field] for run in runs) / 1000

    print(f"import blackbox.cli: median of {args.runs} cold runs (ms)")
    for module in modules:
        print(f"{module:<20} self {median_ms(module, 0):8.2f}")
    total_self = statistics.median(sum(run[m][0] for m in modules) for run in runs) / 1000
    print(f"{'blackbox.* self sum':<20}      {total_self:8.2f}")
    print(f"{'blackbox.cli total':<20}      {median_ms('blackbox.cli', 1):8.2f}")


if __name__ == "__main__":
    main()
