#!/usr/bin/env python3
"""Benchmark: netlist -> behavior, end to end and layer by layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs one workload (see ``gen.py``) in this single-threaded process.  Three
kinds of operation are timed, each through the code a user runs:

* ``behavior``: ``blackbox.cli.main(["blackbox", FILE, "--json"])`` on a
  netlist written during set-up (``--as-impedance`` for two-terminal
  circuits), stdout captured;
* ``check``: ``blackbox.cli.main(["check", FILE])``, which runs all three
  routes and requires exact agreement;
* ``compose``: black-box each block of a chain with ``blackbox`` and fold the
  relations with ``compose_relations`` (``tensor_relations`` side by side,
  ``dagger_relation`` for the mirrored half).

The fixed list of operations runs in rounds, as many as fit in ``--seconds``
(at least one).  Every reported time is scaled by a calibration kernel timed
around it (see ``calibrate``).  Outside the timed interval, the first round's
outputs are checked against a reference: the Kirchhoff oracle's generators
for ``behavior``, exit status 0 for ``check``, ``blackbox_fast`` of the flat
composite circuit for ``compose``, and an independent ``Fraction`` nodal
solve of Z(s) for two-terminal circuits.  Every later round must repeat the
first round's outputs.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from one untraced round followed by
the reference computation and one round under ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import gen
import reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KINDS = ("behavior", "check", "compose")
SETUPS = 9
END_TO_END = {"setup_s": "s", "wall_s": "s", "behavior_p50_ms": "ms", "check_p50_ms": "ms",
              "compose_p50_ms": "ms", "peak_rss_mb": "MB"}

# Traced functions, the workloads on which each must be called (the
# prediction table in README.md), and the extra stats reported for it.
FUNCTIONS = {
    "netlist.parse_netlist": (("corpus",), ()),
    "field.poly_gcd": (("networks", "compose"), ()),
    "field.RatFunc": (("networks", "compose"), ()),
    "circuits.compose_circuits": (("compose",), ()),
    "dirichlet.extended_power_functional": (("networks",), ()),
    "dirichlet.power_functional": (("networks",), ()),
    "dirichlet.eliminate_node": (("networks",), ("fill",)),
    "dirichlet.gradient": (("networks",), ()),
    "corel.corel_from_cospan": (("corpus", "networks"), ()),
    "corel.corel_from_function": ((), ()),
    "lagrel.rref": (("corpus", "networks"), ("cells", "max_cols")),
    "lagrel.nullspace": (("corpus", "networks"), ()),
    "lagrel.symplectify": (("corpus", "networks"), ()),
    "lagrel.graph_of_differential": (("corpus", "networks"), ()),
    "lagrel.compose_relations": (("compose",), ()),
    "lagrel.LagrangianRelation": (("corpus",), ()),
    "behavior.blackbox": (("corpus", "networks", "compose"), ("total_s",)),
    "behavior.blackbox_fast": (("corpus", "networks", "compose"), ("total_s",)),
    "behavior.oracle_behavior": (("corpus", "networks", "compose"), ("total_s",)),
    "behavior.cospan_relation": (("corpus", "networks", "compose"), ("total_s",)),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "fill": "count",
         "cells": "count", "max_cols": "count"}
OUTPUT_STATS = {"field.result_degree_max": "count", "field.result_coeff_bits_max": "bits"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, (_, extras) in FUNCTIONS.items():
        for stat in ("calls", "self_s") + extras:
            out[f"{name}.{stat}"] = UNITS[stat]
    out.update(OUTPUT_STATS)
    out["trace.overhead_ratio"] = "ratio"
    return out


# -- operations ------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    name: str
    call: object  # () -> output
    verify: object  # (output, reference) -> None, or the reason it is wrong
    reference: object  # () -> what verify compares against


def cli(bb, argv):
    """Run the CLI in-process; (exit status, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = bb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def analyse(bb, combinator, blocks):
    """Compositional analysis: black-box each block, then fold the relations."""
    rels = [bb.blackbox(g) for g in blocks]
    if combinator == "parallel":
        return reduce(bb.tensor_relations, rels)
    rel = reduce(bb.compose_relations, rels)
    if combinator == "mirror":
        rel = bb.compose_relations(rel, bb.dagger_relation(rel))
    return rel


def flatten(bb, combinator, blocks):
    """The flat circuit whose behavior ``analyse`` must reproduce."""
    if combinator == "parallel":
        return reduce(bb.tensor_circuits, blocks)
    g = reduce(bb.compose_circuits, blocks)
    if combinator == "mirror":
        g = bb.compose_circuits(g, bb.dagger_circuit(g))
    return g


def make_ops(bb, workload, workdir):
    """Write the netlists and return the fixed list of operations."""
    texts = [(net.name, gen.netlist_text(net), net) for net in workload.circuits]
    blocks = {}
    for chain in workload.chains:
        blocks[chain.name] = [bb.parse_netlist(gen.netlist_text(b)) for b in chain.blocks]
        if chain.flat_verbs:
            flat = flatten(bb, chain.combinator, blocks[chain.name])
            texts.append((chain.name, bb.print_netlist(flat), None))
    ops = []
    for name, text, net in texts:
        path = workdir / f"{name}.net"
        path.write_text(text)
        if workload.impedance:
            ops.append(Op(
                "behavior", name,
                lambda path=path: cli(bb, ["blackbox", str(path), "--as-impedance"]),
                _verify_impedance,
                lambda net=net: [reference.driving_point_impedance(net, p)
                                 for p in reference.POINTS],
            ))
        else:
            ops.append(Op(
                "behavior", name,
                lambda path=path: cli(bb, ["blackbox", str(path), "--json"]),
                _verify_json,
                lambda text=text: _oracle_json(bb, text),
            ))
        ops.append(Op(
            "check", name, lambda path=path: cli(bb, ["check", str(path)]),
            _verify_check, lambda path=path: f"ok {path}\n",
        ))
    for chain in workload.chains:
        c, parts = chain.combinator, blocks[chain.name]
        ops.append(Op(
            "compose", chain.name,
            lambda c=c, parts=parts: analyse(bb, c, parts),
            lambda rel, ref: None if rel == ref else "differs from the flat composite",
            lambda c=c, parts=parts: bb.blackbox_fast(flatten(bb, c, parts)),
        ))
    return spread(ops)


def spread(ops):
    """Interleave the kinds so that each is spread evenly over a round, and a
    burst of machine noise does not land on one kind alone."""
    count = {kind: sum(op.kind == kind for op in ops) for kind in KINDS}
    seen = dict.fromkeys(KINDS, 0)
    keyed = []
    for op in ops:
        keyed.append(((seen[op.kind] + 0.5) / count[op.kind], KINDS.index(op.kind), op))
        seen[op.kind] += 1
    return [op for *_, op in sorted(keyed, key=lambda t: t[:2])]


def _oracle_json(bb, text):
    g = bb.parse_netlist(text)
    return bb.behavior.behavior_to_json(g, bb.oracle_behavior(g))


def _verify_json(result, expected):
    code, out = result
    if code != 0:
        return f"exit status {code}"
    return None if json.loads(out) == expected else "differs from the oracle"


def _verify_check(result, expected):
    code, out = result
    if code != 0:
        return f"exit status {code}"
    return None if out == expected else f"printed {out!r}"


def _verify_impedance(result, expected):
    code, out = result
    if code != 0:
        return f"exit status {code}"
    got = [reference.eval_ratfunc(out.strip(), p) for p in reference.POINTS]
    return None if got == expected else f"Z = {out.strip()} differs from the nodal solve"


# -- measurement -------------------------------------------------------------------

# On a shared VM the CPU's speed can change by up to 2x in phases of seconds
# to minutes, more than any median inside a run can absorb.  So each
# operation is timed between two runs of a fixed calibration kernel, and its
# time is scaled to a machine on which that kernel takes CAL_REF_S.  The
# kernel is benchmark code, not the engine, so a change to the engine does
# not change it.  A calibration runs after any operation that ends at least
# CAL_EVERY_S after the previous calibration.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.05
_CAL_NET = gen.ladder("calibration", 6, "RL", "C", random.Random(0))


def calibrate():
    """Seconds the calibration kernel takes now.  It mixes the two kinds of
    work the engine does, exact Fraction elimination and dict, tuple and
    str churn, because the slow phases slow them by different factors."""
    start = time.perf_counter()
    for sigma in reference.POINTS[:2]:
        reference.driving_point_impedance(_CAL_NET, sigma)
    table = {}
    for i in range(4000):
        table[i % 97, i % 13] = (i, str(i))
    sorted(table.items())
    return time.perf_counter() - start


def run_op(op):
    """(seconds, output or None, failure reason or None)."""
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:
        return time.perf_counter() - start, None, repr(exc)
    return time.perf_counter() - start, out, None


@dataclass
class Round:
    seconds: list  # scaled time of each op
    raw: list  # measured time of each op
    results: list  # (output or None, failure reason or None) of each op
    calibrations: list  # seconds of each calibration run


def scaled(fn, *args):
    """Run ``fn`` between two calibrations: (scaled seconds, raw seconds, result)."""
    before = calibrate()
    start = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - start
    return raw * 2 * CAL_REF_S / (before + calibrate()), raw, out


def run_round(ops):
    """Run every op once, each timed between the calibrations around it."""
    gc.collect()
    rnd = Round([], [], [], [calibrate()])
    pending = []
    last = time.perf_counter()
    for k, op in enumerate(ops):
        seconds, out, error = run_op(op)
        rnd.raw.append(seconds)
        rnd.results.append((out, error))
        pending.append(seconds)
        if k == len(ops) - 1 or time.perf_counter() - last >= CAL_EVERY_S:
            rnd.calibrations.append(calibrate())
            last = time.perf_counter()
            scale = 2 * CAL_REF_S / sum(rnd.calibrations[-2:])
            rnd.seconds += [t * scale for t in pending]
            pending = []
    return rnd


def setup(workload_name, seed, workdir):
    """Import the engine afresh, generate the inputs, write the netlists and
    run one operation of each kind.  Returns (engine, ops)."""
    for mod in [m for m in sys.modules if m == "blackbox" or m.startswith("blackbox.")]:
        del sys.modules[mod]
    bb = importlib.import_module("blackbox")
    importlib.import_module("blackbox.cli")
    workload = gen.WORKLOADS[workload_name](seed)
    workdir.mkdir()
    ops = make_ops(bb, workload, workdir)
    for kind in KINDS:
        run_op(next(op for op in ops if op.kind == kind))
    return bb, ops


def references(ops):
    """Each op's reference, or the exception that computing it raised."""
    out = []
    for op in ops:
        try:
            out.append(op.reference())
        except Exception as exc:
            out.append(exc)
    return out


def verify(ops, expected, results):
    """(op index, failure line) for each wrong result of one round."""
    failures = []
    for k, (op, ref, (out, error)) in enumerate(zip(ops, expected, results)):
        if error is None and isinstance(ref, Exception):
            error = f"no reference: {ref!r}"
        if error is None:
            try:
                error = op.verify(out, ref)
            except Exception as exc:
                error = f"unreadable output: {exc!r}"
        if error is not None:
            failures.append((k, f"{op.kind} {op.name}: {error}"))
    return failures


def timed_rounds(ops, seconds):
    """Run the op list in rounds while another round fits in ``seconds``.

    Each later round's outputs are compared with the first round's and then
    dropped, so memory does not grow with the number of rounds.  Returns the
    rounds (first with results, the rest without), the number of later rounds
    that repeated each op's first output, and a failure line for every error
    or changed output in a later round."""
    start = time.perf_counter()
    rounds = [run_round(ops)]
    repeats = [0] * len(ops)
    failures = []
    while time.perf_counter() - start + statistics.median(sum(r.raw) for r in rounds) < seconds:
        rnd = run_round(ops)
        for k, (op, (out, error), (first, _)) in enumerate(zip(ops, rnd.results, rounds[0].results)):
            if error is None and out != first:
                error = "output differs from the first round's"
            if error is None:
                repeats[k] += 1
            else:
                failures.append(f"{op.kind} {op.name}: {error}")
        rnd.results = None
        rounds.append(rnd)
    return rounds, repeats, failures


def percentile_lines(ops, rounds):
    """Per-kind latency: each op's median over rounds, then p50/p90 over ops."""
    lat = {}
    summary = []
    for kind in KINDS:
        per_op = [
            statistics.median(rnd.seconds[k] for rnd in rounds)
            for k, op in enumerate(ops) if op.kind == kind
        ]
        lat[kind] = statistics.median(per_op) * 1000
        line = f"{kind}: p50 {lat[kind]:.3f} ms"
        if len(per_op) >= 100:
            line += f", p90 {statistics.quantiles(per_op, n=10)[-1] * 1000:.3f} ms"
        summary.append(f"{line} (n={len(per_op)} ops x {len(rounds)} rounds)")
    return lat, summary


def swell_stats(ops, results):
    degree = bits = 0
    for op, (out, _) in zip(ops, results):
        if op.kind == "behavior":
            text = out[1].strip()
            entries = ([e for row in json.loads(text)["generators"] for e in row]
                       if text.startswith("{") else [text])
        elif op.kind == "compose":
            entries = [str(e) for row in out.sub.rows for e in row]
        else:
            continue
        for e in entries:
            d, b = reference.swell(e)
            degree, bits = max(degree, d), max(bits, b)
    return degree, bits


@dataclass
class TraceResult:
    metrics: dict  # name -> (value, unit)
    failures: list  # wrong outputs
    problems: list  # broken self-checks
    tracer: Tracer


def trace_ops(workload, bb, ops):
    """One untraced round, then the references and one round under the
    tracer; checks both rounds and the tracer's own predictions."""
    plain = run_round(ops)
    tracer = Tracer()
    tracer.install(bb)
    try:
        expected = references(ops)
        traced = run_round(ops)
    finally:
        tracer.uninstall()
    failures = [line for rnd in (plain, traced) for _, line in verify(ops, expected, rnd.results)]
    swell = swell_stats(ops, traced.results) if not failures else (0, 0)
    metrics = layer_metrics(tracer, swell, sum(traced.seconds) / sum(plain.seconds))
    problems = []
    if any(a[0] != b[0] for a, b in zip(plain.results, traced.results)):
        problems.append("traced outputs differ from untraced outputs")
    for name, (targets, extras) in FUNCTIONS.items():
        if workload in targets:
            problems += [f"{name}.{stat} is 0 on {workload}"
                         for stat in ("calls",) + extras if not metrics[f"{name}.{stat}"][0]]
    problems += [f"{name} is 0" for name in OUTPUT_STATS if not metrics[name][0]]
    return TraceResult(metrics, failures, problems, tracer)


def measure(args, workdir):
    setups = []
    for k in range(SETUPS):
        seconds, raw, (bb, ops) = scaled(setup, args.workload, args.seed, workdir / f"setup{k}")
        setups.append((seconds, raw))
    lines = [f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per round"]
    if args.trace:
        result = trace_ops(args.workload, bb, ops)
        failures = result.failures
        problems, metrics = result.problems, result.metrics
        lines += [f"{n:40s} {c:>9d} calls {s:9.4f} s self {t:9.4f} s total"
                  for n, c, s, t in result.tracer.table()[:30]]
        attempted = 2 * len(ops)
    else:
        rounds, repeats, failures = timed_rounds(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for k, line in verify(ops, references(ops), rounds[0].results):
            failures += [line] * (1 + repeats[k])
        problems = []
        lat, summary = percentile_lines(ops, rounds)
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(sum(rnd.seconds) for rnd in rounds),
            "behavior_p50_ms": lat["behavior"],
            "check_p50_ms": lat["check"],
            "compose_p50_ms": lat["compose"],
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        cals = [c for rnd in rounds for c in rnd.calibrations]
        lines += summary + [
            f"unscaled: setup {statistics.median(r for _, r in setups):.4f} s, round "
            f"{statistics.median(sum(rnd.raw) for rnd in rounds):.3f} s; calibration "
            f"median {statistics.median(cals) * 1000:.3f} ms, range "
            f"{min(cals) * 1000:.3f}-{max(cals) * 1000:.3f} ms (reference "
            f"{CAL_REF_S * 1000:.3f} ms)"
        ]
        attempted = len(ops) * len(rounds)
    lines.append(f"fail_frac: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for line in (failures + problems)[:10]:
        print("FAIL " + line, file=sys.stderr)
    return lines, {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, swell, overhead):
    units = per_layer_units()
    metrics = {}
    for name, (_, extras) in FUNCTIONS.items():
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s(name)
        for stat in extras:
            metrics[f"{name}.{stat}"] = (
                tracer.total[name] if stat == "total_s" else tracer.extra[f"{name}.{stat}"]
            )
    metrics["field.result_degree_max"], metrics["field.result_coeff_bits_max"] = swell
    metrics["trace.overhead_ratio"] = overhead
    return {k: (metrics[k], units[k]) for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blackbox" / "cli.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT))
    try:
        lines, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
