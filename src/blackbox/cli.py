"""Command-line front end.

Machine output goes to stdout, diagnostics to stderr.  ``main`` alone turns
every failure an input can cause, a value too long to print included, into
exit status 2 with nothing on stdout.  ``equiv`` exits 0 when the two
behaviors are exactly equal and 1 otherwise.  With ``--allow-raw-z`` a
netlist may hold ``Z`` directives; each raw impedance must be positive at
every point of the fixed grid ``field.DEFAULT_SAMPLE_POINTS``.

The parser is built once per process.  An argv that starts with a verb is
parsed by that verb's subparser alone; any other argv, and one that the
subparser cannot take whole, goes through the full parser, so help, errors
and exit statuses are those of ``build_parser().parse_args``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .behavior import (
    as_impedance,
    behavior_to_json,
    blackbox,
    blackbox_categorical,
    equivalent,
    oracle_behavior,
)
from .circuits import compose_circuits, dagger_circuit, tensor_circuits
from .dirichlet import extended_power_functional, power_functional
from .errors import EngineError
from .field import from_rat, parse_rational
from .netlist import parse_netlist, print_netlist


def _read(path):
    """The netlist text of a file, or of standard input for "-", decoded
    strictly as UTF-8 whatever the locale, less one leading byte-order
    mark.  A byte that is not UTF-8 is reported at its offset in the raw
    data."""
    if path == "-":
        name, data = "standard input", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            name, data = path, f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EngineError(f"{name}: not UTF-8 text at byte {exc.start}") from None
    return text[1:] if text.startswith("\ufeff") else text


def _load(path, args):
    return parse_netlist(_read(path), allow_raw_z=args.allow_raw_z)


def _print_behavior(g, rel, args):
    if args.as_impedance:
        print(as_impedance(rel))
        return
    if args.json:
        print(json.dumps(behavior_to_json(g, rel)))
        return
    print(rel.pretty())


def _cmd_blackbox(args):
    g = _load(args.file, args)
    _print_behavior(g, blackbox(g), args)
    return 0


def _cmd_glue(args):
    """``compose`` and ``tensor``: the subparser sets ``args.glue``."""
    g1 = _load(args.first, args)
    g2 = _load(args.second, args)
    sys.stdout.write(print_netlist(args.glue(g1, g2)))
    return 0


def _cmd_dagger(args):
    g = _load(args.file, args)
    sys.stdout.write(print_netlist(dagger_circuit(g)))
    return 0


def _cmd_eliminate(args):
    g = _load(args.file, args)
    p = extended_power_functional(g)
    q = power_functional(p, g.boundary)
    print(p.pretty("P"), q.pretty("Q"), sep="\n")  # both built before either is written
    return 0


def _cmd_equiv(args):
    g1 = _load(args.first, args)
    g2 = _load(args.second, args)
    return 0 if equivalent(g1, g2) else 1


def _cmd_eval(args):
    g = _load(args.file, args)
    rel = blackbox(g)
    try:
        sigma = parse_rational(args.at)
    except ValueError as exc:
        raise EngineError(f"bad evaluation point: {exc}") from None
    # Every entry is evaluated and rendered before anything is printed, so a
    # pole, or a value too long to print, leaves stdout empty.
    rows = ["[" + ", ".join(str(from_rat(e.eval_at(sigma))) for e in row) + "]"
            for row in rel.sub.rows]
    print("columns: " + " ".join(rel.column_names()))
    for row in rows:
        print(row)
    return 0


def _first_difference(rel, ref):
    """Where a behavior first departs from the categorical one: both
    dimensions if they differ, else the first differing entry."""
    if rel.sub.dim != ref.sub.dim:
        return f"dimension {rel.sub.dim}, categorical {ref.sub.dim}"
    for k, (row, ref_row) in enumerate(zip(rel.sub.rows, ref.sub.rows)):
        for name, e, ref_e in zip(ref.column_names(), row, ref_row):
            if e != ref_e:
                return f"row {k}, column {name}: {e}, categorical {ref_e}"
    return "port signs"


def _check_one(path, args):
    g = _load(path, args)
    ref = blackbox_categorical(g)
    for route, name in ((blackbox, "elimination route"), (oracle_behavior, "Kirchhoff/Ohm oracle")):
        rel = route(g)
        if rel != ref:
            raise EngineError(
                f"{path}: {name} disagrees with the categorical black box "
                f"({_first_difference(rel, ref)})"
            )
    half = ref.source.num_ports + ref.target.num_ports
    if ref.sub.dim != half:
        raise EngineError(f"{path}: behavior dimension {ref.sub.dim} != {half}")
    print(f"ok {path}")


def _cmd_check(args):
    if args.file and args.corpus:
        raise EngineError(f"check takes a file or --corpus, not both: {args.file}, {args.corpus}")
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
    return _build()[0]


def _build():
    """The full parser and its map from each verb to the verb's subparser."""
    parser = argparse.ArgumentParser(
        prog="blackbox",
        description="Exact compositional analysis of passive linear circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}

    def add(name, fn, help_):
        p = verbs[name] = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn, verb=name)
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

    p = add("compose", _cmd_glue, "glue two circuits and emit the netlist")
    p.set_defaults(glue=compose_circuits)
    p.add_argument("first")
    p.add_argument("second")

    p = add("tensor", _cmd_glue, "put two circuits side by side")
    p.set_defaults(glue=tensor_circuits)
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

    return parser, verbs


@functools.cache
def _parser():
    return _build()


def _parse(argv):
    """The namespace of ``argv``, parsed by the subparser of the verb that
    ``argv[0]`` names.  Anything else, and any argument that subparser
    leaves over, goes through the full parser, which then prints the same
    help or error as it always does."""
    parser, verbs = _parser()
    if argv and argv[0] in verbs:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
