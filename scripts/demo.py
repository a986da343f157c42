#!/usr/bin/env python3
"""Walkthrough: black-box a series RLC circuit and inspect every stage.

Builds the R=2, L=3, C=1/2 chain, prints the extended power functional,
the minimized boundary form, the behavior matrix, and the scalar impedance,
then samples the response on the positive real axis.  The engine is
imported from this checkout's ``src``.

    python3 scripts/demo.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blackbox import (  # noqa: E402
    as_impedance,
    blackbox,
    circuit,
    extended_power_functional,
    impedance,
    power_functional,
)


def main():
    rlc = circuit(
        ["a", "b", "c", "d"],
        [
            ("a", "b", impedance("R", 2)),
            ("b", "c", impedance("L", 3)),
            ("c", "d", impedance("C", Fraction(1, 2))),
        ],
        inputs=["a"],
        outputs=["d"],
    )

    p = extended_power_functional(rlc)
    print(p.pretty("P"))
    q = power_functional(p, rlc.boundary)
    print(q.pretty("Q"))

    rel = blackbox(rlc)
    print()
    print(rel.pretty())

    z = as_impedance(rel)
    print()
    print(f"impedance: Z(s) = {z}")
    for sigma in (Fraction(1, 2), 1, 2, 10):
        print(f"  Z({sigma}) = {z.eval_at(sigma)}")


if __name__ == "__main__":
    main()
