"""The netlist text format: one directive per line, ``#`` starts a comment.

    nodes: a b c          declare node labels
    inputs: a a           ordered input ports (repetition allowed)
    outputs: c            ordered output ports
    R a b 2               resistor, positive rational value
    L b c 3               inductor
    C a c 1/2             capacitor
    Z a b (s^2+1)/(s+2)   raw impedance; needs allow_raw_z and must sample
                          positive on the grid
    W a b                 ideal wire: merges the two nodes (not an edge)
"""

from __future__ import annotations

import re
from fractions import Fraction

from .circuits import Circuit, LabelledGraph, merge_map
from .errors import NonPositiveImpedance, ParseError, UnknownNode
from .field import (
    DEFAULT_SAMPLE_POINTS,
    MAX_DIGITS,
    Witness,
    impedance,
    is_positive_sampled,
    parse_ratfunc,
)


_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_value(text, lineno):
    # Fraction expands exponent notation into an exact integer, so the digit
    # strings and the exponent are capped before it sees the text.
    if max(map(len, _DIGIT_RUN.findall(text)), default=0) > MAX_DIGITS:
        raise ParseError(lineno, f"number longer than {MAX_DIGITS} digits")
    exp = _EXPONENT.search(text)
    if exp and abs(int(exp.group(1))) > MAX_DIGITS:
        raise ParseError(lineno, f"exponent {exp.group(1)} exceeds {MAX_DIGITS} in magnitude")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational value {text!r}") from None
    if value <= 0:
        raise NonPositiveImpedance(f"line {lineno}: value {value} is not positive")
    return value


def parse_netlist(text, allow_raw_z=False, sample_points=DEFAULT_SAMPLE_POINTS):
    """Parse netlist text into a Circuit, applying W-merges before construction."""
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
            edges.append((a, b, impedance(head, _parse_value(rest[2], lineno))))
        elif head == "Z":
            if len(rest) != 3:
                raise ParseError(lineno, "Z needs two nodes and an impedance")
            if not allow_raw_z:
                raise ParseError(lineno, "raw impedance requires --allow-raw-z")
            a, b = known(rest[0], lineno), known(rest[1], lineno)
            z = parse_ratfunc(rest[2], lineno)
            if z.is_zero() or not is_positive_sampled(z, sample_points):
                raise NonPositiveImpedance(
                    f"line {lineno}: impedance {rest[2]} fails the positivity sample"
                )
            edges.append((a, b, z.with_witness(Witness.SAMPLED)))
        elif head == "W":
            if len(rest) != 2:
                raise ParseError(lineno, "W needs exactly two nodes")
            wires.append((known(rest[0], lineno), known(rest[1], lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    j = merge_map(nodes, wires)
    merged_edges = [(j[a], j[b], z) for a, b, z in edges]
    graph = LabelledGraph({j[n] for n in nodes}, merged_edges)
    return Circuit(graph, [j[p] for p in inputs], [j[p] for p in outputs])


def _component_line(src, tgt, z):
    num, den = z.num, z.den
    if den.is_one() and num.degree() == 0 and num.lead > 0:
        return f"R {src} {tgt} {num.lead}"
    if den.is_one() and num.degree() == 1 and num.coeffs[0] == 0 and num.lead > 0:
        return f"L {src} {tgt} {num.lead}"
    if num.degree() == 0 and num.lead > 0 and den.coeffs == (Fraction(0), Fraction(1)):
        return f"C {src} {tgt} {1 / num.lead}"
    return f"Z {src} {tgt} {z}"


def print_netlist(g):
    """Render a circuit back to netlist text; R/L/C edges keep their kind."""
    lines = ["nodes: " + " ".join(g.graph.nodes)]
    if g.inputs:
        lines.append("inputs: " + " ".join(g.inputs))
    if g.outputs:
        lines.append("outputs: " + " ".join(g.outputs))
    for src, tgt, z in g.graph.edges:
        lines.append(_component_line(src, tgt, z))
    return "\n".join(lines) + "\n"
