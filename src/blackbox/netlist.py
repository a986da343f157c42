"""The netlist text format: one directive per line, ``#`` starts a comment.

    nodes: a b c          declare node labels
    inputs: a a           ordered input ports (repetition allowed)
    outputs: c            ordered output ports
    R a b 2               resistor, positive rational value
    L b c 3               inductor
    C a c 1/2             capacitor
    Z a b (s^2+1)/(s+2)   raw impedance; needs allow_raw_z and must be
                          positive on DEFAULT_SAMPLE_POINTS
    W a b                 ideal wire: merges the two nodes (not an edge)

Node labels cannot contain ``#``, so every printed netlist parses back.
"""

from __future__ import annotations

from math import gcd

from .circuits import Circuit, LabelledGraph
from .corel import merge_map
from .errors import NonPositiveImpedance, ParseError, PoleAtPoint, UnknownNode
from .field import (
    MAX_DIGITS,
    component,
    int_impedance,
    is_positive_sampled,
    parse_rational,
    parse_ratfunc,
)


def _parse_value(text, lineno):
    """The positive component value written in ``text``, as coprime ints p, q.

    A value written in ASCII digits as ``p`` or ``p/q``, both nonzero and
    within ``MAX_DIGITS``, is read straight to ints.  Every other form goes
    through ``parse_rational``, with its caps and its messages.
    """
    num, slash, den = text.partition("/")
    if (text.isascii() and num.isdigit() and (den.isdigit() or not slash)
            and len(num) <= MAX_DIGITS and len(den) <= MAX_DIGITS):
        p = int(num)
        q = int(den) if slash else 1
        if p and q:
            g = gcd(p, q)
            return p // g, q // g
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    if value <= 0:
        raise NonPositiveImpedance(f"line {lineno}: value {value} is not positive")
    return value.numerator, value.denominator


def parse_netlist(text, allow_raw_z=False):
    """Parse netlist text into a Circuit, applying W-merges before
    construction; a netlist with no ``W`` line skips the merge."""
    nodes = []
    node_set = set()
    inputs = []
    outputs = []
    edges = []
    wires = []

    def known(label, lineno):
        if label not in node_set:
            raise UnknownNode(f"line {lineno}: node {label!r} not declared")
        return label

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "nodes:":
            for lab in rest:
                if lab in node_set:
                    raise ParseError(lineno, f"duplicate node {lab!r}")
                nodes.append(lab)
                node_set.add(lab)
        elif head == "inputs:":
            inputs.extend(known(lab, lineno) for lab in rest)
        elif head == "outputs:":
            outputs.extend(known(lab, lineno) for lab in rest)
        elif head in ("R", "L", "C"):
            if len(rest) != 3:
                raise ParseError(lineno, f"{head} needs two nodes and a value")
            a, b = known(rest[0], lineno), known(rest[1], lineno)
            edges.append((a, b, int_impedance(head, *_parse_value(rest[2], lineno))))
        elif head == "Z":
            if len(rest) != 3:
                raise ParseError(lineno, "Z needs two nodes and an impedance")
            if not allow_raw_z:
                raise ParseError(lineno, "raw impedance requires --allow-raw-z")
            a, b = known(rest[0], lineno), known(rest[1], lineno)
            z = parse_ratfunc(rest[2], lineno)
            try:
                positive = not z.is_zero() and is_positive_sampled(z)
            except PoleAtPoint as exc:
                raise NonPositiveImpedance(
                    f"line {lineno}: impedance {rest[2]} fails the positivity sample: {exc}"
                ) from None
            if not positive:
                raise NonPositiveImpedance(
                    f"line {lineno}: impedance {rest[2]} fails the positivity sample"
                )
            edges.append((a, b, z))
        elif head == "W":
            if len(rest) != 2:
                raise ParseError(lineno, "W needs exactly two nodes")
            wires.append((known(rest[0], lineno), known(rest[1], lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    if not wires:
        return Circuit(LabelledGraph(nodes, edges), inputs, outputs)
    j = merge_map(nodes, wires)
    merged_edges = [(j[a], j[b], z) for a, b, z in edges]
    graph = LabelledGraph({j[n] for n in nodes}, merged_edges)
    return Circuit(graph, [j[p] for p in inputs], [j[p] for p in outputs])


def print_netlist(g):
    """Render a circuit back to netlist text; R/L/C edges keep their kind."""
    lines = ["nodes: " + " ".join(g.graph.nodes)]
    if g.inputs:
        lines.append("inputs: " + " ".join(g.inputs))
    if g.outputs:
        lines.append("outputs: " + " ".join(g.outputs))
    for src, tgt, z in g.graph.edges:
        kind, value = component(z) or ("Z", z)
        lines.append(f"{kind} {src} {tgt} {value}")
    return "\n".join(lines) + "\n"
