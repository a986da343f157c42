"""Command-line front end.

Machine output goes to stdout, diagnostics to stderr.  ``main`` alone turns
every failure an input can cause, a value too long to print included, into
exit status 2 with nothing on stdout.  ``equiv`` exits 0 when the two
behaviors are exactly equal and 1 otherwise.  With ``--allow-raw-z`` a
netlist may hold ``Z`` directives; each raw impedance must be positive at
every point of the fixed grid ``field.DEFAULT_SAMPLE_POINTS``.

The verbs are described once, in the table ``_VERBS``.  An argv made of a
verb and then only that verb's exact option strings, their values and its
positionals is read straight from the table.  Every other argv (help,
abbreviations, ``--opt=value``, ``--``, values that start with "-" and
every error) goes to the full argparse parser, built from the same table on
first need, so help, errors and exit statuses are those of
``_build().parse_args``.  A well-formed argv never imports argparse, and
only ``blackbox --json`` imports json.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from types import SimpleNamespace

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


def _name(path):
    """How an error message names the netlist at ``path``."""
    return "standard input" if path == "-" else path


def _read(path):
    """The netlist text of a file, or of standard input for "-", decoded
    strictly as UTF-8 whatever the locale, less one leading byte-order
    mark.  A byte that is not UTF-8 is reported at its offset in the raw
    data."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EngineError(f"{_name(path)}: not UTF-8 text at byte {exc.start}") from None
    return text[1:] if text.startswith("\ufeff") else text


def _load(path, args):
    return parse_netlist(_read(path), allow_raw_z=args.allow_raw_z)


def _print_behavior(g, rel, args):
    if args.as_impedance:
        print(as_impedance(rel))
        return
    if args.json:
        import json

        print(json.dumps(behavior_to_json(g, rel)))
        return
    print(rel.pretty())


def _cmd_blackbox(args):
    g = _load(args.file, args)
    _print_behavior(g, blackbox(g), args)
    return 0


def _cmd_glue(args):
    """``compose`` and ``tensor``: the verb table sets ``args.glue``."""
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


def _route_relation(route, name, g):
    """The relation ``route`` builds for ``g``.  A route's rows that are not
    Lagrangian make ``LagrangianRelation`` raise ValueError; that becomes
    an EngineError naming the route."""
    try:
        return route(g)
    except ValueError as exc:
        raise EngineError(f"{name} built no Lagrangian relation ({exc})") from None


def _check_one(path, args):
    """Parse the file and require its three routes to agree; each failure
    names the file once (``_read``'s own errors already name it)."""
    text = _read(path)
    try:
        g = parse_netlist(text, allow_raw_z=args.allow_raw_z)
        ref = _route_relation(blackbox_categorical, "categorical black box", g)
        for route, name in ((blackbox, "elimination route"), (oracle_behavior, "Kirchhoff/Ohm oracle")):
            rel = _route_relation(route, name, g)
            if rel != ref:
                raise EngineError(
                    f"{name} disagrees with the categorical black box "
                    f"({_first_difference(rel, ref)})"
                )
    except EngineError as exc:
        raise EngineError(f"{_name(path)}: {exc}") from None


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
    for path in files:  # only once every file has passed: a failure leaves stdout empty
        print(f"ok {path}")
    return 0


# Every verb takes this flag, ahead of its own arguments.
_RAW_Z = ("--allow-raw-z", "accept Z directives (validated by positivity sampling)")


def _dest(option):
    """The namespace field of a long option, named as argparse names it."""
    return option[2:].replace("-", "_")


class _Verb:
    """A verb: its handler and help, its positionals as (name, nargs) pairs,
    its store-true flags as {option: help}, its valued options as
    {option: (metavar, required, help)} and defaults that no argument sets.
    ``fields`` is its namespace when no argument is given."""

    def __init__(self, fn, help_, positionals, flags=(), options=(), **defaults):
        self.fn, self.help, self.positionals = fn, help_, positionals
        self.flags, self.options, self.defaults = dict(flags), dict(options), defaults
        self.switches = {o: _dest(o) for o in (_RAW_Z[0], *self.flags)}
        self.valued = {o: _dest(o) for o in self.options}
        self.required = [self.valued[o] for o, (_, required, _) in self.options.items() if required]
        self.min_positionals = sum(nargs is None for _, nargs in positionals)
        self.fields = {"fn": fn, **defaults, **dict.fromkeys(self.switches.values(), False),
                       **dict.fromkeys(self.valued.values()),
                       **dict.fromkeys(name for name, _ in positionals)}


_FILE = [("file", None)]
_TWO_FILES = [("first", None), ("second", None)]
_VERBS = {
    "blackbox": _Verb(_cmd_blackbox, "print the behavior of a circuit", _FILE, flags={
        "--json": "emit the JSON schema",
        "--as-impedance": "print the scalar Z(s) of a 1-in/1-out Ohm-law behavior",
    }),
    "compose": _Verb(_cmd_glue, "glue two circuits and emit the netlist", _TWO_FILES,
                     glue=compose_circuits),
    "tensor": _Verb(_cmd_glue, "put two circuits side by side", _TWO_FILES, glue=tensor_circuits),
    "dagger": _Verb(_cmd_dagger, "swap inputs and outputs", _FILE),
    "eliminate": _Verb(_cmd_eliminate, "print the P and Q forms", _FILE),
    "equiv": _Verb(_cmd_equiv, "exit 0 iff the behaviors are exactly equal", _TWO_FILES),
    "eval": _Verb(_cmd_eval, "evaluate the behavior matrix at s = sigma", _FILE,
                  options={"--at": ("SIGMA", True, None)}),
    "check": _Verb(_cmd_check, "run the invariant suite on circuits", [("file", "?")],
                   options={"--corpus": (None, False, "directory of .net files")}),
}


def _build():
    """The full parser, made from ``_VERBS``.  Each verb takes
    ``--allow-raw-z``, then its positionals, flags and valued options."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="blackbox",
        description="Exact compositional analysis of passive linear circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.set_defaults(fn=verb.fn, verb=name, **verb.defaults)
        p.add_argument(_RAW_Z[0], action="store_true", help=_RAW_Z[1])
        for dest, nargs in verb.positionals:
            p.add_argument(dest, nargs=nargs)
        for option, help_ in verb.flags.items():
            p.add_argument(option, action="store_true", help=help_)
        for option, (metavar, required, help_) in verb.options.items():
            p.add_argument(option, metavar=metavar, required=required, help=help_)
    return parser


@functools.cache
def _parser():
    return _build()


def _read_argv(argv):
    """The namespace of an argv that ``_VERBS`` reads whole, else None.

    After the verb, each word must be an exact option string of that verb,
    the value after a valued option, or a positional; neither a value nor a
    positional may start with "-", though "-" alone is a positional.  Every
    required option and positional must be given."""
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None:
        return None
    fields = dict(verb.fields, verb=argv[0])
    words = []
    rest = iter(argv[1:])
    for word in rest:
        if word in verb.switches:
            fields[verb.switches[word]] = True
        elif word in verb.valued:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            fields[verb.valued[word]] = value
        elif word == "-" or not word.startswith("-"):
            words.append(word)
        else:
            return None
    if not verb.min_positionals <= len(words) <= len(verb.positionals):
        return None
    if any(fields[dest] is None for dest in verb.required):
        return None
    fields.update(zip((name for name, _ in verb.positionals), words))
    return SimpleNamespace(**fields)


def _parse(argv):
    """The namespace of ``argv``: read from ``_VERBS`` when it is well
    formed, else parsed by the full parser, which prints the same help or
    error as it always does."""
    args = _read_argv(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
