"""An independent reference for two-terminal circuits, and a reader for the
engine's printed rational functions.  Plain ``Fraction`` arithmetic only; no
code from the engine under test.
"""

from __future__ import annotations

import re
from fractions import Fraction

POINTS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 3))

_TERM = re.compile(r"([+-]?)(\d*)\*?(s?)(?:\^(\d+))?")


def element_impedance(kind, value, sigma):
    if kind == "R":
        return value
    if kind == "L":
        return value * sigma
    if kind == "C":
        return 1 / (value * sigma)
    raise ValueError(f"unknown component kind {kind!r}")


def driving_point_impedance(net, sigma):
    """Z(sigma) between the single input and the single output node.

    Grounds the output, injects a unit current at the input and solves the
    nodal admittance system Y v = e by exact Gaussian elimination.
    """
    (src,), (gnd,) = net.inputs, net.outputs
    free = [n for n in net.nodes if n != gnd]
    index = {n: k for k, n in enumerate(free)}
    size = len(free)
    y = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for kind, a, b, value in net.edges:
        if a == b:
            continue
        g = 1 / element_impedance(kind, value, sigma)
        for p, q in ((a, b), (b, a)):
            if p in index:
                y[index[p]][index[p]] += g
                if q in index:
                    y[index[p]][index[q]] -= g
    y[index[src]][size] = Fraction(1)
    for col in range(size):
        piv = next(r for r in range(col, size) if y[r][col])
        y[col], y[piv] = y[piv], y[col]
        lead = y[col][col]
        y[col] = [e / lead for e in y[col]]
        for r in range(size):
            if r != col and y[r][col]:
                f = y[r][col]
                y[r] = [e - f * p for e, p in zip(y[r], y[col])]
    return y[index[src]][size]


def _strip_parens(text):
    return text[1:-1] if text.startswith("(") and text.endswith(")") else text


def parse_poly(text):
    """{exponent: integer coefficient} of a printed polynomial like 3*s^2-s+2."""
    coeffs = {}
    for sign, digits, svar, exp in _TERM.findall(_strip_parens(text)):
        if not (digits or svar):
            continue
        c = int(digits) if digits else 1
        k = (int(exp) if exp else 1) if svar else 0
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
    return coeffs


def parse_ratfunc(text):
    """(numerator, denominator) coefficient dicts of a printed entry."""
    num, _, den = text.partition("/")
    return parse_poly(num), parse_poly(den) if den else {0: 1}


def eval_poly(coeffs, sigma):
    return sum(Fraction(c) * sigma**k for k, c in coeffs.items())


def eval_ratfunc(text, sigma):
    num, den = parse_ratfunc(text)
    return eval_poly(num, sigma) / eval_poly(den, sigma)


def swell(text):
    """(max degree, max coefficient bit length) of a printed entry."""
    degree = bits = 0
    for poly in parse_ratfunc(text):
        for k, c in poly.items():
            degree = max(degree, k)
            bits = max(bits, abs(c).bit_length())
    return degree, bits
