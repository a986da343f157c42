"""Exact arithmetic in Q and in the rational-function field Q(s).

Every scalar the engine touches is a ``RatFunc``: a quotient of polynomials
stored as two tuples of Python ints, ``n`` and ``d``, lowest degree first.
The stored pair is canonical: ``n`` and ``d`` are coprime over Q, the gcd of
all their coefficients together is 1, ``d`` has a positive leading
coefficient, and zero is ``((), (1,))``.  The form is unique, so structural
equality coincides with field equality.  Reduction to lowest terms uses the
primitive pseudo-remainder sequence over Z[s] (``poly_gcd``); by Gauss's
lemma, dividing by a primitive gcd stays exact over Z.  ``Poly`` is the
rational-coefficient view (``RatFunc.num``/``.den``) for callers and tests.
No floating point anywhere; the categorical laws downstream are checked by
exact comparison.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

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

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# -- integer polynomials ---------------------------------------------------------
#
# Tuples of ints, lowest degree first, no trailing zeros; () is zero.


def _strip(cs):
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _scale(a, k):
    return tuple(k * x for x in a)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _strip(out)


def _psub(a, b):
    out = list(a)
    if len(out) < len(b):
        out += [0] * (len(b) - len(out))
    for k, c in enumerate(b):
        out[k] -= c
    return _strip(out)


def _pmul(a, b):
    if len(a) == 1:
        return _scale(b, a[0])
    if len(b) == 1:
        return _scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _primitive(a):
    """``a`` divided by the gcd of its coefficients."""
    c = gcd(*a)
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a, b):
    """A nonzero integer multiple of the remainder of ``a`` by ``b``."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if c:
            g = gcd(lb, c)
            lq, cq = lb // g, c // g
            if lq != 1:
                r = [lq * x for x in r]
            shift = k - db
            for j in range(db):
                r[shift + j] -= cq * b[j]
    return _strip(r)


def _pquo(a, b):
    """The quotient ``a / b`` over Z[s]; ``b`` must divide ``a`` exactly."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        if c:
            q[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
    return tuple(q)


def poly_gcd(a, b):
    """The primitive gcd of two integer polynomials, leading coefficient
    positive; ``()`` when both are zero.

    Primitive pseudo-remainder sequence: each remainder is divided by its
    content, so coefficients stay as small as the gcd allows.
    """
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return ()
    a = _primitive(a)
    while b:
        if len(b) == 1:
            return (1,)
        b = _primitive(b)
        a, b = b, _prem(a, b)
    return a if a[-1] > 0 else _scale(a, -1)


def _integer_poly(x):
    """Integer coefficients ``p`` and a positive int ``m`` with x = p / m, for
    a Poly, a coefficient list, or a scalar."""
    if isinstance(x, Poly):
        cs = x.coeffs
    elif isinstance(x, (tuple, list)):
        cs = [Fraction(c) for c in x]
    else:
        cs = (Fraction(x),)
    m = lcm(*(c.denominator for c in cs))
    return _strip([c.numerator * (m // c.denominator) for c in cs]), m


class Witness(Enum):
    """How a rational function's membership in F+ is supported.

    STRUCTURAL: built from R/L/C constructors and closed combinations.
    SAMPLED: passed is_positive_sampled on an explicit grid.
    UNCHECKED: no claim.
    """

    STRUCTURAL = "structural"
    SAMPLED = "sampled"
    UNCHECKED = "unchecked"


def _new(n, d, witness):
    """A RatFunc from a pair already in canonical form."""
    r = object.__new__(RatFunc)
    r.n = n
    r.d = d
    r.witness = witness
    return r


class RatFunc:
    """An element of Q(s) in canonical form.

    ``n`` and ``d`` are int tuples, lowest degree first: coprime over Q, with
    no common factor among all their coefficients, ``d[-1] > 0``, and zero
    stored as ``((), (1,))``.  Equality and hashing ignore the positivity
    witness, which is bookkeeping, not part of the field value.

    ``RatFunc(num, den)`` accepts a Poly, a coefficient list (ints or
    Fractions) or a scalar for each part; ``_ints=True`` says both are
    already int tuples without trailing zeros.
    """

    __slots__ = ("n", "d", "witness")

    def __init__(self, num, den=1, witness=Witness.UNCHECKED, _ints=False):
        if _ints:
            n, d = num, den
        else:
            n, mn = _integer_poly(num)
            d, md = _integer_poly(den)
            if not d:
                raise ZeroDenominator("denominator is the zero polynomial")
            if mn != md:
                n, d = _scale(n, md), _scale(d, mn)
        if not n:
            d = (1,)
        else:
            if len(n) > 1 and len(d) > 1:
                g = poly_gcd(n, d)
                if len(g) > 1:
                    n, d = _pquo(n, g), _pquo(d, g)
            c = gcd(*n, *d)
            if d[-1] < 0:
                c = -c
            if c != 1:
                n = tuple(x // c for x in n)
                d = tuple(x // c for x in d)
        self.n = n
        self.d = d
        self.witness = witness

    # -- rational-coefficient view ---------------------------------------------

    @property
    def num(self):
        """The numerator over Q, scaled so that ``den`` is monic."""
        lc = self.d[-1]
        return Poly([Fraction(c, lc) for c in self.n])

    @property
    def den(self):
        """The monic denominator over Q."""
        lc = self.d[-1]
        return Poly([Fraction(c, lc) for c in self.d])

    # -- basic protocol ------------------------------------------------------

    def is_zero(self):
        return not self.n

    def is_one(self):
        return self.n == (1,) and self.d == (1,)

    def is_constant(self):
        return len(self.n) <= 1 and len(self.d) == 1

    def as_rat(self):
        """The value as a Fraction; requires a constant."""
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(self.n[0], self.d[0]) if self.n else Fraction(0)

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = from_rat(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        # A constant hashes like its Fraction value, since it compares equal
        # to it (and to an int).
        if self.is_constant():
            return hash(self.as_rat())
        return hash((self.n, self.d))

    def with_witness(self, witness):
        return _new(self.n, self.d, witness)

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
        if not self.n:
            return other
        if not other.n:
            return self
        return _combine(_padd, self, other, self._join(self, other))

    __radd__ = __add__

    def __neg__(self):
        return _new(_scale(self.n, -1), self.d, Witness.UNCHECKED)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.n:
            return self
        if not self.n:
            return -other
        return _combine(_psub, self, other, Witness.UNCHECKED)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.n or not other.n:
            return ZERO
        w = self._join(self, other)
        if self.is_one():
            return other if other.witness is w else other.with_witness(w)
        if other.is_one():
            return self if self.witness is w else self.with_witness(w)
        return RatFunc(_pmul(self.n, other.n), _pmul(self.d, other.d), w, _ints=True)

    __rmul__ = __mul__

    def inv(self):
        if not self.n:
            raise DivisionByZero("inverse of zero")
        w = Witness.STRUCTURAL if self.witness is Witness.STRUCTURAL else Witness.UNCHECKED
        if self.n[-1] > 0:
            return _new(self.d, self.n, w)
        return _new(_scale(self.d, -1), _scale(self.n, -1), w)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.n:
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
        d = _horner(self.d, sigma)
        if d == 0:
            raise PoleAtPoint(f"s = {sigma} is a pole")
        return _horner(self.n, sigma) / d

    # -- printing --------------------------------------------------------------

    def as_integer_pair(self):
        """Equivalent (num, den) with integer coefficients, minimal content."""
        return Poly(self.n), Poly(self.d)

    def __str__(self):
        n, d = self.n, self.d
        if not n:
            return "0"
        if d == (1,):
            return _poly_str(n)
        if len(n) == 1 and len(d) == 1:
            return f"{n[0]}/{d[0]}"
        return f"({_poly_str(n)})/({_poly_str(d)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _combine(op, a, b, witness):
    """a + b or a - b, as ``op`` is ``_padd`` or ``_psub``."""
    if a.d == b.d:
        return RatFunc(op(a.n, b.n), a.d, witness, _ints=True)
    return RatFunc(op(_pmul(a.n, b.d), _pmul(b.n, a.d)), _pmul(a.d, b.d), witness, _ints=True)


def _horner(cs, sigma):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * sigma + c
    return acc


ZERO = _new((), (1,), Witness.UNCHECKED)
ONE = _new((1,), (1,), Witness.UNCHECKED)
s = _new((0, 1), (1,), Witness.UNCHECKED)


def from_rat(q):
    """Embed a rational number into Q(s)."""
    q = Fraction(q)
    if q == 0:
        return ZERO
    return _new((q.numerator,), (q.denominator,), Witness.UNCHECKED)


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
    p, q = value.numerator, value.denominator
    if kind == "R":
        return _new((p,), (q,), Witness.STRUCTURAL)
    if kind == "L":
        return _new((0, p), (q,), Witness.STRUCTURAL)
    if kind == "C":
        return _new((q,), (0, p), Witness.STRUCTURAL)
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
    """Render an integer polynomial, highest degree first."""
    parts = []
    for k in range(len(p) - 1, -1, -1):
        n = p[k]
        if n == 0:
            continue
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
    """Parse an integer-coefficient polynomial into an int tuple."""
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
        coef = int(digits) if digits else 1
        if sign == "-":
            coef = -coef
        k = 0 if svar is None else (int(exp) if exp else 1)
        if k > MAX_EXPONENT:
            raise ParseError(line, f"exponent {k} above the cap of {MAX_EXPONENT}")
        coeffs[k] = coeffs.get(k, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _strip(out)


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
        num, den = _parse_poly(text, line), (1,)
    else:
        num = _parse_poly(text[:split_at], line)
        den = _parse_poly(text[split_at + 1 :], line)
    if not den:
        raise ParseError(line, "zero denominator")
    return RatFunc(num, den, _ints=True)
