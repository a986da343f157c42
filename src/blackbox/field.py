"""Exact arithmetic in Q and in the rational-function field Q(s).

Every scalar the engine touches is a ``RatFunc``: a quotient of polynomials
stored as two tuples of Python ints, ``n`` and ``d``, lowest degree first.
The stored pair is canonical: ``n`` and ``d`` are coprime over Q, the gcd of
all their coefficients together is 1, ``d`` has a positive leading
coefficient, and zero is ``((), (1,))``.  The form is unique, so structural
equality coincides with field equality.  Reduction to lowest terms divides
by the primitive gcd over Z[s] (``poly_gcd``), which stays exact over Z by
Gauss's lemma.  Most gcds are settled by splitting off the common power of
s, one pseudo-remainder step and an evaluation that proves coprimality; the
primitive pseudo-remainder sequence runs only for the rest.  Sums, differences
and products of canonical operands use Henrici's cross-cancellation: a sum
takes the gcd of the two denominators and then cancels the new numerator
against that gcd alone, and a product cancels each numerator against the
other denominator, so no gcd of a full result is ever taken, and none at
all where one side is a constant.  An elimination's update a + f * b
(``_add_product``) hands the product's cancelled pair straight to the sum,
with no RatFunc made for it.  Operands that need no general path get
short ones: a product with ``ONE`` is the other operand, 1 and -1 negate
to the shared ``MINUS_ONE`` and ``ONE``, a product of two constants p/q and
p'/q' is reduced by the one integer gcd of pp' and qq', and a numerator
equal to the other denominator, or to its negative, cancels to 1 or -1 with
no gcd (``_cancel``).  No floating point anywhere; the categorical laws
downstream are checked by exact comparison.  Arithmetic and equality take
``RatFunc`` operands only; a rational enters the field by ``from_rat``, and
``ZERO``, ``ONE``, ``MINUS_ONE`` and ``TWO`` are shared.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    DivisionByZero,
    EngineError,
    NonPositiveImpedance,
    ParseError,
    PoleAtPoint,
)

#: The fixed grid on which ``is_positive_sampled`` samples positivity of raw
#: impedances on the positive real axis, in this order.
DEFAULT_SAMPLE_POINTS = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(7),
)


# -- integer polynomials ---------------------------------------------------------
#
# Tuples of ints, lowest degree first, no trailing zeros; () is zero.


def _strip(cs):
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _scale(a, k):
    return a if k == 1 else tuple([k * x for x in a])


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
            for k, y in enumerate(b, i):
                out[k] += x * y
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

    Entries of Q(s) are full of powers of s and mostly coprime, so the
    primitive pseudo-remainder sequence (``_prs``) runs only when the
    operands may share a factor that is not a power of s:

    1. s is prime in Z[s], so gcd(s^i·a', s^j·b') = s^min(i,j)·gcd(a', b')
       with a'(0), b'(0) nonzero; if a' or b' is constant that is all.
    2. With deg b' <= deg a', one pseudo-remainder step gives
       r = m·a' - q·b' for a nonzero integer m.  If r = 0 the gcd is pp(b');
       if r is a nonzero constant it is 1.
    3. Otherwise a common factor of a' and b' divides c = pp(r).  By the
       Landau-Mignotte bound a factor g of c has coefficients of magnitude
       below H = 2^deg(c)·(isqrt(‖c‖₂²) + 1).  Take ξ the least power of
       two >= 2H + 2, so that evaluation is by shifts.  Then a nonconstant
       g has |g(ξ)| > ξ^deg(g)/2 >= ξ/2, and c(ξ) != 0 since ξ exceeds
       c's root bound.  g(ξ) divides both c(ξ) and b'(ξ), so
       gcd(c(ξ), b'(ξ)) <= ξ/2 proves b' and c, hence a' and b', coprime.
    4. Otherwise the PRS continues from (b', c).

    The primitive gcd with positive leading coefficient is unique, so every
    step returns what the PRS alone would.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _positive_lead(_primitive(a)) if a else ()
    i = j = 0
    while not a[i]:
        i += 1
    while not b[j]:
        j += 1
    a, b = a[i:], b[j:]
    if len(a) < len(b):
        a, b = b, a
    g = (1,)
    if len(b) > 1:
        b = _primitive(b)
        r = _prem(_primitive(a), b)
        if not r:
            g = _positive_lead(b)
        elif len(r) > 1:
            c = _primitive(r)
            # ξ = 2^k >= 2H + 2, with H as above.
            k = (isqrt(sum(x * x for x in c)) + 1).bit_length() + len(c)
            if 2 * gcd(_at_power_of_two(c, k), _at_power_of_two(b, k)) > 1 << k:
                g = _prs(c, _prem(b, c))
    return (0,) * min(i, j) + g


def _prs(a, b):
    """The primitive gcd of ``a`` (primitive) and ``b``, leading coefficient
    positive: the primitive pseudo-remainder sequence, in which each
    remainder is divided by its content, so coefficients stay as small as
    the gcd allows."""
    while b:
        if len(b) == 1:
            return (1,)
        b = _primitive(b)
        a, b = b, _prem(a, b)
    return _positive_lead(a)


def _positive_lead(a):
    return a if a[-1] > 0 else _scale(a, -1)


def _at_power_of_two(cs, k):
    """The integer polynomial ``cs`` at 2^k, by Horner with shifts."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << k) + c
    return acc


def _integer_poly(x):
    """Integer coefficients ``p`` and a positive int ``m`` with x = p / m, for
    a coefficient list or a scalar."""
    if isinstance(x, (tuple, list)):
        cs = [Fraction(c) for c in x]
    else:
        cs = (Fraction(x),)
    m = lcm(*(c.denominator for c in cs))
    return _strip([c.numerator * (m // c.denominator) for c in cs]), m


def _new(n, d):
    """A RatFunc from a pair already in canonical form."""
    r = object.__new__(RatFunc)
    r.n = n
    r.d = d
    return r


class RatFunc:
    """An element of Q(s) in canonical form.

    ``n`` and ``d`` are int tuples, lowest degree first: coprime over Q, with
    no common factor among all their coefficients, ``d[-1] > 0``, and zero
    stored as ``((), (1,))``.

    ``RatFunc(num, den)`` accepts a coefficient list (ints or Fractions,
    lowest degree first) or a scalar for each part and reduces the quotient
    to lowest terms.  ``_coprime=True`` says both are int tuples without
    trailing zeros that are already coprime over Q: only the content and the
    sign are normalized.  Every arithmetic result is built that way, so
    this normalization is the one shared by all paths; the one exception is
    a product of two constants, which ``__mul__`` reduces by a single
    integer gcd.  The operators take RatFuncs only: ``2 * x`` raises
    TypeError and ``x == 1`` is False; write ``TWO * x``, or ``from_rat(q)``
    for any rational q.
    """

    __slots__ = ("n", "d")

    def __init__(self, num, den=1, _coprime=False):
        if _coprime:
            n, d = num, den
        else:
            n, mn = _integer_poly(num)
            d, md = _integer_poly(den)
            if not d:
                raise DivisionByZero("denominator is the zero polynomial")
            if mn != md:
                n, d = _scale(n, md), _scale(d, mn)
            if len(n) > 1 and len(d) > 1:
                n, d = _cancel(n, d)
        if not n:
            d = (1,)
        else:
            c = gcd(*n, *d)
            if d[-1] < 0:
                c = -c
            if c != 1:
                n = tuple(x // c for x in n)
                d = tuple(x // c for x in d)
        self.n = n
        self.d = d

    # -- basic protocol ------------------------------------------------------

    def is_zero(self):
        return not self.n

    def is_one(self):
        return self.n == (1,) and self.d == (1,)

    def size(self):
        """The number of stored coefficients, numerator plus denominator."""
        return len(self.n) + len(self.d)

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatFunc:
            return NotImplemented
        if not self.n:
            return other
        if not other.n:
            return self
        return _combine(_padd, self.n, self.d, other.n, other.d)

    def __neg__(self):
        n = self.n
        if (n == (1,) or n == (-1,)) and self.d == (1,):
            return MINUS_ONE if n[0] == 1 else ONE
        return _new(tuple([-x for x in n]), self.d)

    def __sub__(self, other):
        if type(other) is not RatFunc:
            return NotImplemented
        if not other.n:
            return self
        if not self.n:
            return -other
        return _combine(_psub, self.n, self.d, other.n, other.d)

    def __mul__(self, other):
        if type(other) is not RatFunc:
            return NotImplemented
        an, ad, bn, bd = self.n, self.d, other.n, other.d
        if not an or not bn:
            return ZERO
        if an == ad == (1,):
            return other
        if bn == bd == (1,):
            return self
        if len(an) == len(ad) == len(bn) == len(bd) == 1:
            p, q = an[0] * bn[0], ad[0] * bd[0]
            g = gcd(p, q)
            return _new((p // g,), (q // g,))
        # Henrici: each numerator is already coprime to its own denominator,
        # so cancelling it against the other one leaves a coprime product.
        if len(an) > 1 and len(bd) > 1:
            an, bd = _cancel(an, bd)
        if len(bn) > 1 and len(ad) > 1:
            bn, ad = _cancel(bn, ad)
        return RatFunc(_pmul(an, bn), _pmul(ad, bd), _coprime=True)

    def inv(self):
        if not self.n:
            raise DivisionByZero("inverse of zero")
        if self.n[-1] > 0:
            return _new(self.d, self.n)
        return _new(_scale(self.d, -1), _scale(self.n, -1))

    def __truediv__(self, other):
        if type(other) is not RatFunc:
            return NotImplemented
        if not other.n:
            raise DivisionByZero("division by zero")
        return self * other.inv()

    # -- evaluation ------------------------------------------------------------

    def eval_at(self, sigma):
        """The exact value at s = sigma (a rational point)."""
        sigma = Fraction(sigma)
        d = _horner(self.d, sigma)
        if d == 0:
            raise PoleAtPoint(f"s = {sigma} is a pole")
        return _horner(self.n, sigma) / d

    # -- printing --------------------------------------------------------------

    def __str__(self):
        n, d = self.n, self.d
        if not n:
            return "0"
        try:
            if d == (1,):
                return _poly_str(n)
            if len(n) == 1 and len(d) == 1:
                return f"{n[0]}/{d[0]}"
            return f"({_poly_str(n)})/({_poly_str(d)})"
        except ValueError:  # an int beyond the interpreter's str() digit limit
            raise EngineError("a value has too many digits to print") from None

    def __repr__(self):
        return f"RatFunc({self})"


def _cancel(a, b):
    """``a`` and ``b`` divided by their primitive gcd, both nonconstant.

    Equal operands give 1/1 and opposite ones -1/1 with no gcd: the full
    path would leave c/c or c/-c, whose constant the caller's content
    normalization removes anyway.
    """
    if a == b:
        return (1,), (1,)
    if a[-1] == -b[-1] and a == tuple([-x for x in b]):
        return (-1,), (1,)
    g = poly_gcd(a, b)
    if len(g) == 1:
        return a, b
    return _pquo(a, g), _pquo(b, g)


def _combine(op, an, ad, bn, bd):
    """an/ad + bn/bd or an/ad - bn/bd, as ``op`` is ``_padd`` or ``_psub``,
    as a canonical RatFunc.  Each pair must be coprime over Q; neither needs
    its content or sign normalized, so a product's Henrici-cancelled pair
    (``_add_product``) enters as it is.

    Henrici: with g = gcd(ad, bd), the sum is t / (ad * bd / g) where
    t = an * (bd / g) + bn * (ad / g), and a common factor of t and that
    denominator can only divide g.  So t is cancelled against g alone, and
    not at all when g is a constant.
    """
    if ad == bd:
        g = d = ad
        t = op(an, bn)
    else:
        g, a, b = (1,), ad, bd
        if len(a) > 1 and len(b) > 1:
            g = poly_gcd(a, b)
            if len(g) > 1:
                a, b = _pquo(a, g), _pquo(b, g)
        t = op(_pmul(an, b), _pmul(bn, a))
        d = _pmul(ad, b)
    if not t:
        return ZERO
    if len(t) > 1 and len(g) > 1:
        h = poly_gcd(t, g)
        if len(h) > 1:
            t, d = _pquo(t, h), _pquo(d, h)
    return RatFunc(t, d, _coprime=True)


def _add_product(a, f, b):
    """a + f * b, equal to that expression, with no RatFunc made for the
    product.  The product's numerator and denominator are cancelled against
    each other as ``__mul__`` does, which leaves them coprime over Q, and go
    into the sum (``_combine``) without their content normalized."""
    fn, fd, bn, bd = f.n, f.d, b.n, b.d
    if not fn or not bn:
        return a
    if not a.n:
        return f * b
    if len(fn) > 1 and len(bd) > 1:
        fn, bd = _cancel(fn, bd)
    if len(bn) > 1 and len(fd) > 1:
        bn, fd = _cancel(bn, fd)
    return _combine(_padd, a.n, a.d, _pmul(fn, bn), _pmul(fd, bd))


def _horner(cs, sigma):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * sigma + c
    return acc


ZERO = _new((), (1,))
ONE = _new((1,), (1,))
MINUS_ONE = _new((-1,), (1,))
TWO = _new((2,), (1,))
s = _new((0, 1), (1,))


def from_rat(q):
    """Embed a rational number into Q(s)."""
    if type(q) is int:
        return _new((q,), (1,)) if q else ZERO
    q = Fraction(q)
    if q == 0:
        return ZERO
    return _new((q.numerator,), (q.denominator,))


def impedance(kind, value):
    """The impedance of an R, L, or C component with the given positive value.

    R -> value, L -> value*s, C -> 1/(value*s).
    """
    value = Fraction(value)
    if value <= 0:
        raise NonPositiveImpedance(f"component value must be positive, got {value}")
    return int_impedance(kind, value.numerator, value.denominator)


def int_impedance(kind, p, q):
    """The impedance of an R, L, or C component of value p/q, given as
    coprime ints p, q > 0; the caller guarantees both conditions."""
    if kind == "R":
        return _new((p,), (q,))
    if kind == "L":
        return _new((0, p), (q,))
    if kind == "C":
        return _new((q,), (0, p))
    raise ValueError(f"unknown component kind {kind!r}")


def half_inverse(z):
    """1/(2z) in canonical form, for a nonzero z = n/d: d/(2n), normalized
    once.  n and d are coprime with content 1 together, so the content of
    d and 2n is 2 when every coefficient of d is even and 1 otherwise; the
    sign is that of n's leading coefficient.  This is the coefficient an
    edge of impedance z gives its pair in a Dirichlet form."""
    n, d = z.n, z.d
    if not n:
        raise DivisionByZero("inverse of zero")
    sign = 1 if n[-1] > 0 else -1
    if gcd(*d) & 1:
        return _new(_scale(d, sign), _scale(n, 2 * sign))
    return _new(tuple([sign * x // 2 for x in d]), _scale(n, sign))


def component(z):
    """The inverse of ``impedance``: the (kind, value) pair whose impedance is
    ``z``, or None when ``z`` is not that of an R, L or C."""
    match z.n, z.d:
        case (p,), (q,) if p > 0:
            return "R", Fraction(p, q)
        case (0, p), (q,) if p > 0:
            return "L", Fraction(p, q)
        case (q,), (0, p) if q > 0:
            return "C", Fraction(p, q)
    return None


def is_positive_sampled(f):
    """True iff f(sigma) > 0 at every point of ``DEFAULT_SAMPLE_POINTS``, tried
    in order; a pole met first raises ``PoleAtPoint``.  A necessary condition
    for membership in F+; not a decision procedure."""
    for sigma in DEFAULT_SAMPLE_POINTS:
        if f.eval_at(sigma) <= 0:
            return False
    return True


# -- textual form --------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?(s)?(?:\^(\d+))?")

# An impedance is P or P/Q.  Each part is one polynomial, bare or inside one
# pair of parentheses, with whitespace around it and inside the parentheses.
# A polynomial is words with no parenthesis, slash or whitespace, separated
# by whitespace, so it neither starts nor ends with whitespace.  Each optional
# stretch of whitespace has one place to go, which keeps the match linear in
# the length of the text.  The pattern is compiled on first use (``re``
# caches it), so the verbs that read no raw impedance do not pay for it.
_WORD = r"[^()/\s]+"
_POLY = rf"{_WORD}(?:\s+{_WORD})*"
_PART = rf"(?:\s*\((?:\s*({_POLY}))?\s*\)|(?:\s*({_POLY}))?)\s*"
_RATFUNC = rf"{_PART}(?:/{_PART})?"

#: Largest power of s a netlist may write; a polynomial stores one
#: coefficient per degree, so the cap bounds what parsing allocates.
MAX_EXPONENT = 1000
#: Longest digit string accepted for a coefficient or an exponent.
MAX_DIGITS = 1000


_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def parse_rational(text):
    """The exact rational written in ``text``: an integer, a ratio, a
    decimal or exponent notation, as ``Fraction`` reads it.

    ``Fraction`` expands exponent notation into an exact integer, so digit
    runs longer than ``MAX_DIGITS`` and exponents larger than ``MAX_DIGITS``
    in magnitude are refused before it sees the text.  Raises ``ValueError``
    with the reason.
    """
    if max(map(len, _DIGIT_RUN.findall(text)), default=0) > MAX_DIGITS:
        raise ValueError(f"number longer than {MAX_DIGITS} digits")
    exp = _EXPONENT.search(text)
    if exp and abs(int(exp.group(1))) > MAX_DIGITS:
        raise ValueError(f"exponent {exp.group(1)} exceeds {MAX_DIGITS} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational value {text!r}") from None


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
    """Parse an integer-coefficient polynomial, a sum of terms such as
    ``3*s^2``, ``2s``, ``-s`` or ``7``, into an int tuple."""
    if not text:
        raise ParseError(line, "empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ParseError(line, f"cannot parse polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _TERM_RE.fullmatch(chunk)
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

    The form is P or P/Q as the pattern ``_RATFUNC`` reads it; spaces are
    ignored.
    Accepts ``^`` for powers; ``*`` between a coefficient and ``s`` is
    optional.
    """
    m = re.fullmatch(_RATFUNC, text.replace(" ", ""))
    if not m:
        raise ParseError(line, f"cannot parse impedance {text!r}")
    # A part's polynomial is in its parenthesised group or its bare one; an
    # empty part leaves both None, which ``_parse_poly`` refuses.
    num = _parse_poly(m[1] or m[2], line)
    den = _parse_poly(m[3] or m[4], line) if "/" in text else (1,)
    if not den:
        raise ParseError(line, "zero denominator")
    return RatFunc(num, den)
