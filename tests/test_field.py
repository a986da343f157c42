import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from blackbox import field
from blackbox.behavior import blackbox
from blackbox.errors import DivisionByZero, NonPositiveImpedance, ParseError, PoleAtPoint
from blackbox.field import (
    MINUS_ONE,
    ONE,
    TWO,
    ZERO,
    RatFunc,
    MAX_DIGITS,
    component,
    from_rat,
    half_inverse,
    impedance,
    is_positive_sampled,
    parse_ratfunc,
    poly_gcd,
    s,
)
from util import mesh_circuit, reference_gcd, reference_parse_ratfunc

rats = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@st.composite
def ratfuncs(draw, allow_zero=True):
    num = draw(st.lists(rats, max_size=3))
    den = draw(st.lists(rats, min_size=1, max_size=3))
    if not any(den):
        den = [1]
    if not allow_zero and not any(num):
        num = [1]
    return RatFunc(num, den)


def test_canonicalization_examples():
    assert RatFunc([-1, 0, 1], [-1, 1]) == s + ONE
    r = RatFunc([1], [0, 2])
    assert (r.n, r.d) == ((1,), (0, 2))
    assert RatFunc([], [2, 0, 0, 1]) == ZERO
    with pytest.raises(DivisionByZero):
        RatFunc([1], [])


def test_arithmetic_examples():
    assert s.inv() == RatFunc([1], [0, 1])
    z = impedance("L", 3) + impedance("R", 2) + impedance("C", Fraction(1, 2))
    assert z == RatFunc([2, 2, 3], [0, 1])
    assert s.inv() * s == ONE
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inv()


def test_eval_at():
    assert s.inv().eval_at(2) == Fraction(1, 2)
    z = impedance("L", 3) + impedance("R", 2) + impedance("C", Fraction(1, 2))
    assert z.eval_at(1) == 7
    with pytest.raises(PoleAtPoint):
        s.inv().eval_at(0)


def test_impedance_constructors():
    assert impedance("R", 2) == from_rat(2)
    assert impedance("L", 3) == from_rat(3) * s
    assert impedance("C", Fraction(1, 2)) == TWO / s
    with pytest.raises(NonPositiveImpedance):
        impedance("R", 0)
    with pytest.raises(NonPositiveImpedance):
        impedance("C", -1)


def test_component_inverts_impedance():
    for kind in "RLC":
        for value in (Fraction(1), Fraction(7, 3), Fraction(3, 10**25), Fraction(10**30 + 1, 9)):
            assert component(impedance(kind, value)) == (kind, value)
    # Zero, negative values, and impedances of no single R, L or C.
    for z in (ZERO, from_rat(-2), -s, MINUS_ONE / s, s + ONE, s * s, (s + ONE).inv(), s.inv() * s.inv()):
        assert component(z) is None


def test_is_positive_sampled():
    # The grid is 1/3, 1/2, 1, 2, 3, 7, tried in that order.
    assert is_positive_sampled(s.inv())
    assert is_positive_sampled((s * s - s + ONE) / (s + TWO))
    assert not is_positive_sampled(s - ONE)
    assert not is_positive_sampled(from_rat(7) - s)  # zero at the last point only
    assert not is_positive_sampled(ZERO)
    with pytest.raises(PoleAtPoint):
        is_positive_sampled((from_rat(3) * s - ONE).inv())  # pole at the first point
    with pytest.raises(PoleAtPoint, match="s = 1 is"):
        is_positive_sampled(((s - ONE) * (s - ONE)).inv())  # positive before its pole
    # A value that is not positive settles it before a later pole is met.
    assert not is_positive_sampled((s - ONE).inv())


def test_impedance_equals_and_hashes_like_its_constant():
    a = impedance("R", 2)
    b = from_rat(2)
    assert a == b and hash(a) == hash(b)


@given(ratfuncs())
def test_mixed_operands_are_refused_and_hash_agrees_with_equality(x):
    # Arithmetic and equality take RatFuncs only; rationals enter by from_rat.
    for mixed in (lambda: x + 1, lambda: 1 + x, lambda: 2 * x, lambda: x * Fraction(1, 2),
                  lambda: x / 2, lambda: x ** 2):
        with pytest.raises(TypeError):
            mixed()
    assert (x == 1) is False and (ONE == 1) is False and (ZERO == 0) is False
    same = RatFunc(list(x.n), list(x.d))
    assert same == x and hash(same) == hash(x)
    p = [3, -1, 2]
    units = [ONE, from_rat(1), from_rat(Fraction(1)), RatFunc(p, p)]
    assert all(u == ONE for u in units)
    assert len({hash(u) for u in units}) == 1


def test_int_embeds_like_its_fraction():
    # An int takes a shortcut past Fraction; it must give the same element.
    for q in (0, 1, -1, 7, -7, -2**70, 10**30):
        fast, slow = from_rat(q), from_rat(Fraction(q))
        assert (fast.n, fast.d) == (slow.n, slow.d)
        assert fast == slow and hash(fast) == hash(slow)
        assert str(fast) == str(slow)
    assert from_rat(0) is ZERO
    assert (from_rat(True).n, from_rat(False).n) == ((1,), ())
    rng = random.Random(9)
    for _ in range(50):
        c = impedance(rng.choice("RLC"), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        assert TWO * c == c + c and c * TWO == c + c
        assert from_rat(-3) * c == -(c + c + c) and from_rat(0) * c == ZERO


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO
    if not b.is_zero():
        assert b * b.inv() == ONE
        assert (a / b) * b == a


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_canonicality_by_association_order(a, b, c):
    lhs = (a + b) * c + c
    rhs = c * b + (c + a * c)
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert str(lhs) == str(rhs)


@given(ratfuncs(), ratfuncs(), st.sampled_from([1, 2, 3, 5, 7]))
def test_eval_is_a_homomorphism(a, b, sigma):
    try:
        va, vb = a.eval_at(sigma), b.eval_at(sigma)
    except PoleAtPoint:
        return
    assert (a + b).eval_at(sigma) == va + vb
    assert (a * b).eval_at(sigma) == va * vb


def test_structural_closure_samples_positive():
    rng = random.Random(7)
    for _ in range(50):
        z = impedance(rng.choice("RLC"), Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            w = impedance(rng.choice("RLC"), Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            z = rng.choice([lambda: z + w, lambda: z * w, lambda: z / w])()
        assert is_positive_sampled(z)


def test_parse_examples():
    assert parse_ratfunc("(3*s^2+2*s+2)/(s)") == RatFunc([2, 2, 3], [0, 1])
    assert parse_ratfunc("1/2") == from_rat(Fraction(1, 2))
    assert parse_ratfunc("2/s") == TWO / s
    assert parse_ratfunc("(s^2+1)/(s+2)") == RatFunc([1, 0, 1], [2, 1])
    assert parse_ratfunc("-s+3") == from_rat(3) - s
    assert parse_ratfunc("3s^2 + 2s + 2") == from_rat(3) * s * s + TWO * s + TWO


@given(ratfuncs())
def test_print_parse_round_trip(a):
    assert parse_ratfunc(str(a)) == a


def _read(parse, text):
    """What ``parse`` reads from ``text``: a RatFunc, or ``ParseError``."""
    try:
        return parse(text)
    except ParseError:
        return ParseError


_GRAMMAR_CHARS = "s0123456789^*+-()/ \t"
_GRAMMAR_PIECES = ["s", "2", "17", "s^2", "3*s", "^", "*", "+", "-", "(", ")", "/", " ", "\t"]


@seed(7)
@settings(max_examples=1500)
@given(st.one_of(
    st.text(alphabet=_GRAMMAR_CHARS, max_size=14),
    st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=12).map("".join),
))
def test_parse_ratfunc_reads_the_reference_language(text):
    assert _read(parse_ratfunc, text) == _read(reference_parse_ratfunc, text)


def test_parse_ratfunc_named_cases():
    for text in ["(s+1", "s+1)", "((s))", "(1/2)", "s/2/3", "()", "", " ", "/", "s/",
                 "(s)(1)", "s\t+1", "1\n+s", "s^", "*s"]:
        assert _read(parse_ratfunc, text) is ParseError is _read(reference_parse_ratfunc, text)
    # Whitespace around a part and inside its parentheses, tabs and
    # non-ASCII whitespace included; any decimal digit.
    for text, value in [("\t(s)\t/ (2)", s / TWO), ("( \ts+1\t)", s + ONE), ("2*", TWO),
                        ("\u00a0s\u3000/\u2003(\x852)", s / TWO), ("\u0663s", from_rat(3) * s)]:
        assert parse_ratfunc(text) == reference_parse_ratfunc(text) == value


def test_parse_ratfunc_is_linear_in_whitespace():
    # Every stretch of whitespace has one place in the pattern.  A stretch
    # that two places could share makes a failing match quadratic: seconds
    # on texts of this length.
    n = 20_000
    start = time.perf_counter()
    for text in ["(" + "\t" * n + "s", "\t" * n + "s)x", "s" + "\t" * n + "+1",
                 "(" + "s\t" * n + "x"]:
        with pytest.raises(ParseError):
            parse_ratfunc(text)
    assert parse_ratfunc("\t" * n + "(" + "\t" * n + "s" + "\t" * n + ")") == s
    assert time.perf_counter() - start < 1


# -- the integer canonical form ------------------------------------------------


def _q_gcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by Euclid over Fractions."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] -= q * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _assert_canonical(r):
    n, d = r.n, r.d
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    if not n:
        assert d == (1,)
        return
    assert n[-1] != 0 and d[-1] > 0
    assert math.gcd(*n, *d) == 1
    assert _q_gcd_degree(n, d) == 0


def _conv(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(ratfuncs(), ratfuncs())
def test_every_result_is_canonical(a, b):
    for r in (a, b, a + b, a - b, a * b, -a):
        _assert_canonical(r)
    if not b.is_zero():
        _assert_canonical(a / b)
        _assert_canonical(b.inv())


@given(
    st.lists(rats, max_size=3),
    st.lists(rats, min_size=1, max_size=3).filter(any),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
    st.integers(-9, 9).filter(bool),
)
def test_common_factors_cancel(num, den, k, m):
    r = RatFunc(num, den)
    assert RatFunc(_conv(k, num), _conv(k, den)) == r
    assert RatFunc([m * c for c in num], [m * c for c in den]) == r


def test_nontrivial_gcd_of_non_primitive_inputs():
    # (2s+2)(3s-1) / ((4s+4)(s+5))
    r = RatFunc([-2, 4, 6], [20, 24, 4])
    assert (r.n, r.d) == ((-1, 3), (10, 2))
    assert str(r) == "(3*s-1)/(2*s+10)"
    assert r == (from_rat(3) * s - ONE) / (TWO * s + from_rat(10))


def test_large_coefficients():
    big = 10**299
    num, den = [big + 7, -3 * big, 1], [2 * big - 1, 5]
    r = RatFunc(num, den)
    _assert_canonical(r)
    text = str(r)
    assert str(big + 7) in text and parse_ratfunc(text) == r
    assert r.eval_at(2) == Fraction(big + 7 - 6 * big + 4, 2 * big - 1 + 10)
    assert (r * r.inv()).is_one() and r - r == ZERO


# -- poly_gcd against the pseudo-remainder sequence -----------------------------

coeffs = st.integers(-20, 20)
int_polys = st.lists(coeffs, min_size=1, max_size=5).map(
    lambda cs: tuple(cs[: max((k + 1 for k, c in enumerate(cs) if c), default=0)])
).filter(bool)


def _ipmul(a, b):
    return tuple(int(c) for c in _conv(a, b))


@st.composite
def gcd_pairs(draw):
    """Two int-tuple polynomials s^i·k·f·u and s^j·m·f·v: a planted common
    factor f, random cofactors, each side's own power of s and content."""
    f, u, v = draw(int_polys), draw(int_polys), draw(int_polys)
    shape = draw(st.sampled_from(["planted", "proportional", "divides", "coprime", "zero"]))
    if shape == "proportional":
        v = u
    elif shape == "divides":
        v = (1,)
    elif shape == "coprime":
        f = (1,)
    big = st.integers(1, 10**30) | st.integers(-(10**30), -1)
    out = []
    for cof in (u, v):
        power = (0,) * draw(st.integers(0, 3)) + (draw(big),)
        out.append(_ipmul(power, _ipmul(f, cof)))
    if shape == "zero":
        out[draw(st.integers(0, 1))] = ()
    return tuple(out)


@settings(max_examples=400)
@given(gcd_pairs())
def test_poly_gcd_matches_the_pseudo_remainder_sequence(pair):
    a, b = pair
    assert poly_gcd(a, b) == poly_gcd(b, a) == reference_gcd(a, b)


def test_poly_gcd_matches_the_pseudo_remainder_sequence_seeded():
    rng = random.Random(13)

    def poly(deg, hi):
        cs = [rng.randint(-hi, hi) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, hi)]
        return tuple(cs)

    for _ in range(1500):
        f = poly(rng.randint(0, 4), rng.choice([3, 100, 10**12]))
        u, v = poly(rng.randint(0, 6), 50), poly(rng.randint(0, 6), 50)
        if rng.random() < 0.2:
            v = _ipmul(u, (rng.randint(-9, 9) or 1,))
        a = (0,) * rng.randint(0, 4) + _ipmul(f, u)
        b = (0,) * rng.randint(0, 4) + _ipmul(f, v)
        assert poly_gcd(a, b) == poly_gcd(b, a) == reference_gcd(a, b)


def test_poly_gcd_edge_cases():
    assert poly_gcd((), ()) == ()
    assert poly_gcd((0, -6, 4), ()) == poly_gcd((), (0, -6, 4)) == (0, -3, 2)
    assert poly_gcd((0, 0, 5), (7,)) == (1,)
    assert poly_gcd((0, 0, 3), (0, 5, 0, 7)) == (0, 1)
    assert poly_gcd((0, 0, 0, -2), (0, 0, 4)) == (0, 0, 1)
    # -(s + 1)^2 and -2s(s + 1): the gcd is s + 1, leading coefficient positive.
    assert poly_gcd((-1, -2, -1), (0, -2, -2)) == (1, 1)


def test_poly_gcd_of_a_shared_factor_is_not_certified_coprime():
    # (s - 2)(s + 2)^2 and (s - 2)(s + 1): the first remainder is s - 2, so
    # H = 2·(isqrt(5) + 1) = 6, xi = 16 >= 2H + 2, and gcd(c(16), b(16)) =
    # gcd(14, 238) = 14 > 8.  Evaluating at a point below 2H + 2 (xi = 4:
    # gcd 2) or accepting a gcd up to xi would pass the shared factor off as
    # coprime.
    a, b = (-8, -4, 2, 1), (-2, -1, 1)
    assert poly_gcd(a, b) == poly_gcd(b, a) == (-2, 1)
    assert RatFunc(a, b) == RatFunc([4, 4, 1], [1, 1])


def test_poly_gcd_falls_back_when_the_certificate_cannot_decide(monkeypatch):
    # a = s^3 - 14s^2 - 31s + 1 and b = (s - 16)(s + 2): the first remainder
    # is s + 1, so xi = 16 is a root of b and the evaluation proves nothing;
    # the pseudo-remainder sequence continues and finds them coprime.
    a, b = (1, -31, -14, 1), (-32, -14, 1)
    continued = []

    def counted(x, y):
        continued.append((x, y))
        return prs(x, y)

    prs = field._prs
    monkeypatch.setattr(field, "_prs", counted)
    assert poly_gcd(a, b) == poly_gcd(b, a) == (1,) == reference_gcd(a, b)
    assert continued == [((1, 1), (-17,))] * 2


def test_poly_gcd_settles_common_cases_without_the_sequence(monkeypatch):
    # The coprime entries of 3x3 RLC meshes' behaviors, driven corner to
    # corner and column to column; computing them may need the sequence.
    rng = random.Random(3)
    entries = []
    for _ in range(3):
        for two_node in (False, True):
            rel = blackbox(mesh_circuit(rng, 3, two_node=two_node))
            entries += [x for row in rel.sub.rows for x in row if len(x.n) > 1 and len(x.d) > 1]
    assert len(entries) > 40

    def refuse(a, b):
        raise AssertionError("the pseudo-remainder sequence ran")

    monkeypatch.setattr(field, "_prs", refuse)
    f = (3, -1, 2)
    # Pure powers of s.
    assert poly_gcd((0, 0, 0, 5), (0, -2)) == (0, 1)
    assert poly_gcd((0, 0, 2, 4), (0, 0, 0, 6, 3)) == (0, 0, 1)
    assert RatFunc([0, 0, 4], [0, 6]) == RatFunc([0, 2], [3])
    # Proportional operands, and a gcd equal to one operand.
    assert poly_gcd(_ipmul(f, (0, 0, -6)), _ipmul(f, (0, 0, 0, 4))) == (0, 0) + f
    assert poly_gcd(_ipmul(f, (-6,)), _ipmul(f, (4,))) == f
    assert poly_gcd(_ipmul(f, (1, 1)), f) == f
    for x in entries:
        assert poly_gcd(x.n, x.d) == (1,)
        assert RatFunc(list(x.n), list(x.d)) == x


# -- Henrici cross-cancellation -----------------------------------------------


def _fully_reduced(op, x, y):
    """x op y, built from the plain numerator and denominator by one full
    reduction, with no short path."""
    xn, xd = list(x.n), list(x.d)
    yn, yd = list(y.n), list(y.d)
    if op == "*":
        return RatFunc(_conv(xn, yn), _conv(xd, yd))
    p, q = _conv(xn, yd), _conv(yn, xd)
    width = max(len(p), len(q))
    p, q = p + [0] * (width - len(p)), q + [0] * (width - len(q))
    sign = 1 if op == "+" else -1
    return RatFunc([u + sign * v for u, v in zip(p, q)], _conv(xd, yd))


def _check_against_fractions(result, op, a, b):
    _assert_canonical(result)
    for sigma in (Fraction(1, 3), Fraction(2), Fraction(-5, 2)):
        assert result.eval_at(sigma) == op(a.eval_at(sigma), b.eval_at(sigma))


def test_henrici_shared_denominator_factors():
    p1, p2, pm1 = s + ONE, s + TWO, s - ONE
    add, sub, mul = (lambda x, y: x + y), (lambda x, y: x - y), (lambda x, y: x * y)
    # gcd of the denominators is s + 1; the new numerator s + 3 is coprime to it.
    a, b = p1.inv(), (p1 * p2).inv()
    r = a + b
    assert r == RatFunc([3, 1], [2, 3, 1])
    _check_against_fractions(r, add, a, b)
    # gcd s; the new numerator is the constant 1, so no second gcd is taken.
    a, b = (s * p1).inv(), (s * p2).inv()
    r = a - b
    assert r == RatFunc([1], [0, 2, 3, 1])
    _check_against_fractions(r, sub, a, b)
    # gcd s, and the new numerator 2s cancels against it: the second gcd.
    a, b = (s * p1).inv(), (s * pm1).inv()
    r = a + b
    assert r == RatFunc([2], [-1, 0, 1])
    _check_against_fractions(r, add, a, b)
    # Each numerator cancels the other denominator completely.
    a, b = p1 / p2, p2 / p1
    r = a * b
    assert r == ONE and r.is_one()
    _check_against_fractions(r, mul, a, b)


@given(ratfuncs(), ratfuncs(), st.lists(rats, min_size=2, max_size=3).filter(lambda c: c[-1]))
def test_henrici_matches_full_reduction(a, b, f):
    # Give both operands the common denominator factor f, then compare with
    # the result reduced by one gcd of its full numerator and denominator.
    f = RatFunc(f)
    a, b = a / f, b / f
    for op, r in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert r == _fully_reduced(op, a, b)
        _assert_canonical(r)


# -- a numerator equal to the other denominator ----------------------------------


@st.composite
def matched_products(draw):
    """(x, y) with y's denominator drawn as x's numerator or its negative, so
    that x * y often meets ``_cancel`` on equal or opposite operands."""
    x = draw(ratfuncs(allow_zero=False))
    sign = draw(st.sampled_from([1, -1]))
    y = RatFunc(draw(st.lists(rats, min_size=1, max_size=3).filter(any)),
                [sign * c for c in x.n])
    return x, y


@settings(max_examples=300)
@given(matched_products())
def test_products_over_the_other_numerator_match_full_reduction(pair):
    x, y = pair
    for a, b in ((x, y), (y, x), (x, y.inv()), (-x, y)):
        r = a * b
        want = _fully_reduced("*", a, b)
        assert (r.n, r.d) == (want.n, want.d)
        _assert_canonical(r)


def test_equal_factors_cancel_to_a_unit():
    p = (3, -1, 2)
    for x in (RatFunc(p), RatFunc([-2, 0, 4]), RatFunc([1, 1], [0, 2, 6]), TWO * s / (s + ONE)):
        assert x * x.inv() == ONE and (x * x.inv()).is_one()
        assert x * (-x).inv() == MINUS_ONE and (-x).inv() * x == MINUS_ONE
        for r in (x * x.inv(), x * (-x).inv()):
            _assert_canonical(r)
    assert RatFunc(p, p) == ONE and RatFunc(p, [-c for c in p]) == MINUS_ONE
    assert RatFunc([2, 4], [1, 2]) == TWO and RatFunc([2, 4], [-1, -2]) == -TWO
    # A numerator equal to the other denominator up to sign, one side left:
    # 2s/(s+1) * (s+3)/(-2s) and (s+1)/(3s-1) * 5/(s+1).
    three = from_rat(3)
    for a, b in ((TWO * s / (s + ONE), (s + three) / (-TWO * s)),
                 ((s + ONE) / (three * s - ONE), from_rat(5) / (s + ONE))):
        r = a * b
        want = _fully_reduced("*", a, b)
        assert (r.n, r.d) == (want.n, want.d)
    assert (TWO * s / (s + ONE)) * ((s + three) / (-TWO * s)) == -(s + three) / (s + ONE)


def test_equal_factors_run_no_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    xs = (RatFunc([3, -1, 2]), RatFunc([0, -4, 0, 1]), (s + ONE) / (s * s + TWO))
    monkeypatch.setattr(field, "poly_gcd", refuse)
    for x in xs:
        assert x * x.inv() == ONE
        assert x * (-x).inv() == MINUS_ONE
    p = [3, -1, 2]
    assert RatFunc(p, p) == ONE and RatFunc(p, [-c for c in p]) == MINUS_ONE


# -- short paths for constant and unit operands ---------------------------------


@st.composite
def field_operands(draw):
    """A RatFunc that is a unit, a constant, a polynomial or a proper quotient."""
    kind = draw(st.sampled_from(["unit", "constant", "polynomial", "quotient"]))
    if kind == "unit":
        return draw(st.sampled_from([ONE, MINUS_ONE, RatFunc(-1), ZERO]))
    if kind == "constant":
        return RatFunc(draw(rats), draw(rats.filter(bool)))
    if kind == "polynomial":
        return RatFunc(draw(st.lists(rats, max_size=4)))
    return draw(ratfuncs())


scalars = st.one_of(st.integers(-6, 6), rats).map(from_rat)


@settings(max_examples=300)
@given(field_operands(), st.one_of(field_operands(), scalars))
def test_short_paths_match_full_reduction(a, b):
    results = [
        (a * b, _fully_reduced("*", a, b)),
        (b * a, _fully_reduced("*", b, a)),
        (a + b, _fully_reduced("+", a, b)),
        (b + a, _fully_reduced("+", b, a)),
        (a - b, _fully_reduced("-", a, b)),
        (b - a, _fully_reduced("-", b, a)),
        (-a, _fully_reduced("-", ZERO, a)),
    ]
    for got, want in results:
        assert type(got) is RatFunc
        assert (got.n, got.d) == (want.n, want.d)
        _assert_canonical(got)


def test_short_path_examples():
    r = RatFunc(-2, 3) * RatFunc(3, 4)
    assert (r.n, r.d) == ((-1,), (2,))
    _assert_canonical(r)
    r = RatFunc(2, 3) * RatFunc(3, 2)
    assert r == ONE and r.is_one()
    r = RatFunc([2, 4]) * from_rat(3)
    assert (r.n, r.d) == ((6, 12), (1,))
    # A product over a one-coefficient denominator gets its content gcd.
    r = RatFunc([4, 2]) * from_rat(Fraction(1, 2))
    assert (r.n, r.d) == ((2, 1), (1,))
    a = (5, -3, 7)
    assert field._scale(a, 1) is a
    p = RatFunc([1, 2, 3], [5, 1])
    assert ONE * p is p and p * ONE is p
    # 1 and -1 negate to the shared constants; a product with -1 takes the
    # general path and equals the negation.
    assert -ONE == MINUS_ONE and (MINUS_ONE.n, MINUS_ONE.d) == ((-1,), (1,))
    _assert_canonical(MINUS_ONE)
    assert -MINUS_ONE is ONE and -RatFunc(-1) is ONE and -RatFunc(1) is MINUS_ONE
    for x in (RatFunc([1, -2, 3]), p, RatFunc(-2, 7)):
        for minus in (MINUS_ONE, RatFunc(-1), from_rat(-1)):
            want = _fully_reduced("*", minus, x)
            for r in (minus * x, x * minus, -x):
                assert (r.n, r.d) == (want.n, want.d)
                _assert_canonical(r)


# -- the elimination update a + f * b -----------------------------------------------


def _rand_operand(rng):
    """A unit, a constant, a polynomial or a quotient, nonzero."""
    kind = rng.choice(["unit", "constant", "polynomial", "quotient"])
    if kind == "unit":
        return rng.choice([ONE, MINUS_ONE])
    if kind == "constant":
        return RatFunc(rng.choice([-3, -2, 2, 3, 4]), rng.randint(1, 6))
    num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
    num[-1] = num[-1] or 1
    if kind == "polynomial":
        return RatFunc(num)
    den = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
    den[-1] = den[-1] or 2
    return RatFunc(num, den)


def test_add_product_stores_the_pair_of_the_sum():
    # Shared denominator factors, equal denominators, sums whose numerator
    # cancels against the shared factor, and sums that cancel to zero.
    rng = random.Random(30)
    factors = [s, s + ONE, s * s + TWO, TWO * s - ONE]
    for k in range(600):
        a, f, b = _rand_operand(rng), _rand_operand(rng), _rand_operand(rng)
        case = k % 5
        if case == 1:  # a denominator factor shared by a and the product
            g = rng.choice(factors)
            a, b = a / g, b / g
        elif case == 2:  # a over the product's own denominator
            a = RatFunc(list(a.n), list((f * b).d))
        elif case == 3:  # the sum t lacks a shared factor g: t cancels against it
            g = rng.choice(factors)
            a = a / g
            b = (_rand_operand(rng) - a) / f
        elif case == 4:  # the sum is zero
            b = -a / f
        for x, y, z in ((a, f, b), (a, b, f), (ZERO, f, b), (a, ZERO, b), (a, f, ZERO)):
            got = field._add_product(x, y, z)
            want = x + y * z
            assert (got.n, got.d) == (want.n, want.d)
            ref = _fully_reduced("+", x, y * z)
            assert (got.n, got.d) == (ref.n, ref.d)
            _assert_canonical(got)
    assert field._add_product(ONE, MINUS_ONE, ONE) is ZERO


# -- the edge coefficient 1/(2z) -------------------------------------------------


def _assert_half_inverse(z):
    """``half_inverse`` gives exactly the stored pair of (TWO * z).inv()."""
    got, want = half_inverse(z), (TWO * z).inv()
    assert (got.n, got.d) == (want.n, want.d)
    _assert_canonical(got)


component_values = st.integers(1, 10**MAX_DIGITS - 1)


@settings(max_examples=300)
@given(st.sampled_from("RLC"), component_values, component_values)
def test_half_inverse_of_a_component(kind, p, q):
    _assert_half_inverse(impedance(kind, Fraction(p, q)))


@st.composite
def positive_factors(draw):
    """A content times factors s + b and a - s, every one positive on the
    sample grid (b > 0, a > 7)."""
    poly = [draw(st.integers(1, 12))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            poly = _conv(poly, [draw(st.integers(1, 9)), 1])
        else:
            poly = _conv(poly, [draw(st.integers(8, 20)), -1])
    return poly


@st.composite
def vetted_raw_z(draw):
    """A raw impedance that passes the positivity sampling, with a numerator
    whose leading coefficient is negative or whose coefficients share a
    factor."""
    z = RatFunc(draw(positive_factors()), draw(positive_factors()))
    assert is_positive_sampled(z)
    assume(z.n[-1] < 0 or math.gcd(*z.n) > 1)
    return z


@settings(max_examples=300)
@given(vetted_raw_z())
def test_half_inverse_of_a_vetted_raw_impedance(z):
    _assert_half_inverse(z)


def test_half_inverse_cases():
    # d/(2n) with content 2 removed when d is even; the sign moved onto d.
    cases = [
        (RatFunc(3, 2), ((1,), (3,))),
        (RatFunc([1, 2], [4, 6]), ((2, 3), (1, 2))),
        (RatFunc([8, -1], [1, 1]), ((-1, -1), (-16, 2))),
        (RatFunc([4, 2], [3]), ((3,), (8, 4))),
    ]
    for z, pair in cases:
        got = half_inverse(z)
        assert (got.n, got.d) == pair
        _assert_half_inverse(z)
    with pytest.raises(DivisionByZero):
        half_inverse(ZERO)
