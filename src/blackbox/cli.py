"""Command-line front end.

Machine output goes to stdout, diagnostics to stderr; parse and
precondition failures exit with status 2.  ``equiv`` exits 0 when the two
behaviors are exactly equal and 1 otherwise.  The environment variable
BLACKBOX_SAMPLE_POINTS (comma-separated positive rationals) overrides the
grid used to validate raw impedances.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .behavior import (
    as_impedance,
    behavior_to_json,
    blackbox,
    blackbox_categorical,
    oracle_behavior,
)
from .circuits import compose_circuits, dagger_circuit, tensor_circuits
from .dirichlet import extended_power_functional, power_functional
from .errors import EngineError
from .field import DEFAULT_SAMPLE_POINTS
from .netlist import parse_netlist, print_netlist


def _sample_points():
    raw = os.environ.get("BLACKBOX_SAMPLE_POINTS")
    if not raw:
        return DEFAULT_SAMPLE_POINTS
    try:
        points = tuple(Fraction(tok.strip()) for tok in raw.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError):
        raise EngineError(f"bad BLACKBOX_SAMPLE_POINTS: {raw!r}") from None
    if not points:
        raise EngineError("BLACKBOX_SAMPLE_POINTS is empty")
    return points


def _read(path):
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load(path, args):
    return parse_netlist(
        _read(path),
        allow_raw_z=getattr(args, "allow_raw_z", False),
        sample_points=_sample_points(),
    )


def _print_behavior(g, rel, args):
    if getattr(args, "as_impedance", False):
        print(as_impedance(rel))
        return
    if getattr(args, "json", False):
        print(json.dumps(behavior_to_json(g, rel)))
        return
    print(rel.pretty())


def _cmd_blackbox(args):
    g = _load(args.file, args)
    _print_behavior(g, blackbox(g), args)
    return 0


def _cmd_compose(args):
    g1 = _load(args.first, args)
    g2 = _load(args.second, args)
    sys.stdout.write(print_netlist(compose_circuits(g1, g2)))
    return 0


def _cmd_tensor(args):
    g1 = _load(args.first, args)
    g2 = _load(args.second, args)
    sys.stdout.write(print_netlist(tensor_circuits(g1, g2)))
    return 0


def _cmd_dagger(args):
    g = _load(args.file, args)
    sys.stdout.write(print_netlist(dagger_circuit(g)))
    return 0


def _cmd_eliminate(args):
    g = _load(args.file, args)
    p = extended_power_functional(g)
    q = power_functional(p, g.boundary)
    print(p.pretty("P"))
    print(q.pretty("Q"))
    return 0


def _cmd_equiv(args):
    g1 = _load(args.first, args)
    g2 = _load(args.second, args)
    return 0 if blackbox(g1) == blackbox(g2) else 1


def _cmd_eval(args):
    g = _load(args.file, args)
    rel = blackbox(g)
    try:
        sigma = Fraction(args.at)
    except (ValueError, ZeroDivisionError):
        raise EngineError(f"bad evaluation point {args.at!r}") from None
    print("columns: " + " ".join(rel.column_names()))
    for row in rel.sub.rows:
        print("[" + ", ".join(str(e.eval_at(sigma)) for e in row) + "]")
    return 0


def _check_one(path, args):
    g = _load(path, args)
    ref = blackbox_categorical(g)
    if blackbox(g) != ref:
        raise EngineError(f"{path}: elimination route disagrees with the categorical black box")
    if oracle_behavior(g) != ref:
        raise EngineError(
            f"{path}: Kirchhoff/Ohm oracle disagrees with the categorical black box"
        )
    half = ref.source.num_ports + ref.target.num_ports
    if ref.sub.dim != half:
        raise EngineError(f"{path}: behavior dimension {ref.sub.dim} != {half}")
    print(f"ok {path}")


def _cmd_check(args):
    if args.corpus:
        files = sorted(str(p) for p in Path(args.corpus).glob("*.net"))
        if not files:
            raise EngineError(f"no .net files under {args.corpus}")
    else:
        if not args.file:
            raise EngineError("check needs a file or --corpus")
        files = [args.file]
    for path in files:
        _check_one(path, args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blackbox",
        description="Exact compositional analysis of passive linear circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument(
            "--allow-raw-z",
            action="store_true",
            help="accept Z directives (validated by positivity sampling)",
        )
        return p

    p = add("blackbox", _cmd_blackbox, "print the behavior of a circuit")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the JSON schema")
    p.add_argument(
        "--as-impedance",
        action="store_true",
        help="print the scalar Z(s) of a 1-in/1-out Ohm-law behavior",
    )

    p = add("compose", _cmd_compose, "glue two circuits and emit the netlist")
    p.add_argument("first")
    p.add_argument("second")

    p = add("tensor", _cmd_tensor, "put two circuits side by side")
    p.add_argument("first")
    p.add_argument("second")

    p = add("dagger", _cmd_dagger, "swap inputs and outputs")
    p.add_argument("file")

    p = add("eliminate", _cmd_eliminate, "print the P and Q forms")
    p.add_argument("file")

    p = add("equiv", _cmd_equiv, "exit 0 iff the behaviors are exactly equal")
    p.add_argument("first")
    p.add_argument("second")

    p = add("eval", _cmd_eval, "evaluate the behavior matrix at s = sigma")
    p.add_argument("file")
    p.add_argument("--at", required=True, metavar="SIGMA")

    p = add("check", _cmd_check, "run the invariant suite on circuits")
    p.add_argument("file", nargs="?")
    p.add_argument("--corpus", help="directory of .net files")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
