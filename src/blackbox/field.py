"""Exact arithmetic in Q and in the rational-function field Q(s).

Every scalar the engine touches is a ``RatFunc``: a quotient of polynomials
with rational coefficients, kept in a unique canonical form (gcd-reduced,
monic denominator) so that structural equality coincides with field equality.
No floating point anywhere; the categorical laws downstream are checked by
exact comparison.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd as _intgcd

from .errors import (
    DivisionByZero,
    EmptySampleSet,
    NonPositiveValue,
    ParseError,
    PoleAtPoint,
    ZeroDenominator,
)

Rat = Fraction

#: Default grid used to sample positivity of raw impedances on the
#: positive real axis.
DEFAULT_SAMPLE_POINTS = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(7),
)


class Poly:
    """Polynomial in ``s`` over Q, coefficients stored lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        return self.coeffs[-1]

    def is_one(self):
        return self.coeffs == (Fraction(1),)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def scale(self, q):
        if q == 0:
            return _P_ZERO
        return Poly([c * q for c in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        lb = other.lead
        quo = [Fraction(0)] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c:
                q = c / lb
                quo[k - db] = q
                for j, cb in enumerate(other.coeffs):
                    rem[k - db + j] -= q * cb
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.lead == 1:
            return self
        return self.scale(1 / self.lead)

    def __call__(self, sigma):
        sigma = Fraction(sigma)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * sigma + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_S = Poly((0, 1))


def poly_gcd(a, b):
    """Monic gcd over Q via the Euclidean algorithm."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.degree() == 0 or b.degree() == 0:
        return _P_ONE
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class Witness(Enum):
    """How a rational function's membership in F+ is supported.

    STRUCTURAL: built from R/L/C constructors and closed combinations.
    SAMPLED: passed is_positive_sampled on an explicit grid.
    UNCHECKED: no claim.
    """

    STRUCTURAL = "structural"
    SAMPLED = "sampled"
    UNCHECKED = "unchecked"


class RatFunc:
    """An element of Q(s) in canonical form.

    Invariants: den is nonzero and monic, gcd(num, den) = 1, and the zero
    element is (0, 1).  Equality and hashing ignore the positivity witness,
    which is bookkeeping, not part of the field value.
    """

    __slots__ = ("num", "den", "witness")

    def __init__(self, num, den=_P_ONE, witness=Witness.UNCHECKED, _canonical=False):
        if not isinstance(num, Poly):
            num = Poly(num) if isinstance(num, (tuple, list)) else Poly((num,))
        if not isinstance(den, Poly):
            den = Poly(den) if isinstance(den, (tuple, list)) else Poly((den,))
        if not _canonical:
            if den.is_zero():
                raise ZeroDenominator("denominator is the zero polynomial")
            if num.is_zero():
                den = _P_ONE
            else:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num //= g
                    den //= g
                lc = den.lead
                if lc != 1:
                    num = num.scale(1 / lc)
                    den = den.scale(1 / lc)
        self.num = num
        self.den = den
        self.witness = witness

    # -- basic protocol ------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.degree() <= 0 and self.den.is_one()

    def as_rat(self):
        """The value as a Fraction; requires a constant."""
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = from_rat(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A constant hashes like its Fraction value, since it compares equal
        # to it (and to an int).
        if self.is_constant():
            return hash(self.as_rat())
        return hash((self.num, self.den))

    def with_witness(self, witness):
        return RatFunc(self.num, self.den, witness, _canonical=True)

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return from_rat(other)
        return None

    @staticmethod
    def _join(a, b):
        if a.witness is Witness.STRUCTURAL and b.witness is Witness.STRUCTURAL:
            return Witness.STRUCTURAL
        return Witness.UNCHECKED

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        w = self._join(self, other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den, w)
        return RatFunc(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            w,
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, Witness.UNCHECKED, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        w = self._join(self, other)
        if self.is_one():
            return other if other.witness is w else other.with_witness(w)
        if other.is_one():
            return self if self.witness is w else self.with_witness(w)
        return RatFunc(self.num * other.num, self.den * other.den, w)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        w = Witness.STRUCTURAL if self.witness is Witness.STRUCTURAL else Witness.UNCHECKED
        lc = self.num.lead
        if lc == 1:
            return RatFunc(self.den, self.num, w, _canonical=True)
        return RatFunc(self.den.scale(1 / lc), self.num.scale(1 / lc), w, _canonical=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by zero")
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- evaluation ------------------------------------------------------------

    def eval_at(self, sigma):
        """The exact value at s = sigma (a rational point)."""
        sigma = Fraction(sigma)
        d = self.den(sigma)
        if d == 0:
            raise PoleAtPoint(f"s = {sigma} is a pole")
        return self.num(sigma) / d

    # -- printing --------------------------------------------------------------

    def as_integer_pair(self):
        """Equivalent (num, den) with integer coefficients, minimal content."""
        denoms = [c.denominator for c in self.num.coeffs + self.den.coeffs]
        scale = 1
        for d in denoms:
            scale = scale * d // _intgcd(scale, d)
        a = [c * scale for c in self.num.coeffs]
        b = [c * scale for c in self.den.coeffs]
        content = 0
        for c in a + b:
            content = _intgcd(content, int(c))
        if content > 1:
            a = [c / content for c in a]
            b = [c / content for c in b]
        return Poly(a), Poly(b)

    def __str__(self):
        if self.num.is_zero():
            return "0"
        num, den = self.as_integer_pair()
        if den.is_one():
            return _poly_str(num)
        if num.degree() <= 0 and den.degree() <= 0:
            return f"{int(num.coeffs[0])}/{int(den.coeffs[0])}"
        return f"({_poly_str(num)})/({_poly_str(den)})"

    def __repr__(self):
        return f"RatFunc({self})"


ZERO = RatFunc(_P_ZERO, _P_ONE, _canonical=True)
ONE = RatFunc(_P_ONE, _P_ONE, _canonical=True)
s = RatFunc(_P_S, _P_ONE, _canonical=True)


def from_rat(q):
    """Embed a rational number into Q(s)."""
    q = Fraction(q)
    if q == 0:
        return ZERO
    return RatFunc(Poly((q,)), _P_ONE, _canonical=True)


def as_ratfunc(x):
    """Coerce an int, Fraction, or RatFunc to a RatFunc."""
    if isinstance(x, RatFunc):
        return x
    return from_rat(x)


def rat_func(num, den):
    """Build the canonical element num/den of Q(s)."""
    return RatFunc(num, den)


def impedance(kind, value):
    """The impedance of an R, L, or C component with the given positive value.

    R -> value, L -> value*s, C -> 1/(value*s); the result carries a
    structural positivity witness.
    """
    value = Fraction(value)
    if value <= 0:
        raise NonPositiveValue(f"component value must be positive, got {value}")
    if kind == "R":
        return RatFunc(Poly((value,)), _P_ONE, Witness.STRUCTURAL, _canonical=True)
    if kind == "L":
        return RatFunc(Poly((0, value)), _P_ONE, Witness.STRUCTURAL, _canonical=True)
    if kind == "C":
        return RatFunc(Poly((1 / value,)), _P_S, Witness.STRUCTURAL, _canonical=True)
    raise ValueError(f"unknown component kind {kind!r}")


def is_positive_sampled(f, points=DEFAULT_SAMPLE_POINTS):
    """True iff f(sigma) > 0 at every sample point sigma > 0.

    A necessary condition for membership in F+; not a decision procedure.
    """
    points = list(points)
    if not points:
        raise EmptySampleSet("need at least one sample point")
    for sigma in points:
        sigma = Fraction(sigma)
        if sigma <= 0:
            raise ValueError(f"sample points must be positive, got {sigma}")
        if f.eval_at(sigma) <= 0:
            return False
    return True


# -- textual form --------------------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?)(?:(\d+)\*?)?(s)?(?:\^(\d+))?$")

#: Largest power of s a netlist may write; a polynomial stores one
#: coefficient per degree, so the cap bounds what parsing allocates.
MAX_EXPONENT = 1000
#: Longest digit string accepted for a coefficient or an exponent.
MAX_DIGITS = 1000


def _poly_str(p):
    """Render an integer-coefficient polynomial, highest degree first."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree(), -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        n = int(c)
        sign = "-" if n < 0 else "+"
        mag = abs(n)
        if k == 0:
            body = str(mag)
        else:
            svar = "s" if k == 1 else f"s^{k}"
            body = svar if mag == 1 else f"{mag}*{svar}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _parse_poly(text, line=0):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for k, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and k != len(text) - 1:
                    break
        else:
            text = text[1:-1].strip()
    if not text:
        raise ParseError(line, "empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ParseError(line, f"cannot parse polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError(line, f"bad term {chunk!r}")
        sign, digits, svar, exp = m.groups()
        if exp is not None and svar is None:
            raise ParseError(line, f"bad term {chunk!r}")
        if max(len(digits or ""), len(exp or "")) > MAX_DIGITS:
            raise ParseError(line, f"number longer than {MAX_DIGITS} digits")
        coef = Fraction(int(digits)) if digits else Fraction(1)
        if sign == "-":
            coef = -coef
        k = 0 if svar is None else (int(exp) if exp else 1)
        if k > MAX_EXPONENT:
            raise ParseError(line, f"exponent {k} above the cap of {MAX_EXPONENT}")
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(out)


def parse_ratfunc(text, line=0):
    """Parse the textual form of a RatFunc, e.g. ``(3*s^2+2*s+2)/(s)``.

    Accepts ``^`` for powers; ``*`` between a coefficient and ``s`` is
    optional; the denominator part may be omitted.
    """
    text = text.replace(" ", "")
    if not text:
        raise ParseError(line, "empty impedance expression")
    depth = 0
    split_at = None
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(line, "unbalanced parentheses")
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ParseError(line, "more than one top-level '/'")
            split_at = k
    if depth != 0:
        raise ParseError(line, "unbalanced parentheses")
    if split_at is None:
        num, den = _parse_poly(text, line), _P_ONE
    else:
        num = _parse_poly(text[:split_at], line)
        den = _parse_poly(text[split_at + 1 :], line)
    if den.is_zero():
        raise ParseError(line, "zero denominator")
    return RatFunc(num, den)
