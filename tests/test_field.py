import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackbox.errors import (
    DivisionByZero,
    EmptySampleSet,
    NonPositiveValue,
    PoleAtPoint,
    ZeroDenominator,
)
from blackbox.field import (
    DEFAULT_SAMPLE_POINTS,
    ONE,
    ZERO,
    Poly,
    RatFunc,
    Witness,
    from_rat,
    impedance,
    is_positive_sampled,
    parse_ratfunc,
    rat_func,
    s,
)

rats = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@st.composite
def ratfuncs(draw, allow_zero=True):
    num = Poly(draw(st.lists(rats, max_size=3)))
    den = Poly(draw(st.lists(rats, min_size=1, max_size=3)))
    if den.is_zero():
        den = Poly((1,))
    if not allow_zero and num.is_zero():
        num = Poly((1,))
    return RatFunc(num, den)


def test_canonicalization_examples():
    assert rat_func(Poly([-1, 0, 1]), Poly([-1, 1])) == s + 1
    r = rat_func(Poly([1]), Poly([0, 2]))
    assert r.num == Poly([Fraction(1, 2)]) and r.den == Poly([0, 1])
    assert rat_func(Poly([]), Poly([2, 0, 0, 1])) == ZERO
    with pytest.raises(ZeroDenominator):
        rat_func(Poly([1]), Poly([]))


def test_arithmetic_examples():
    assert s.inv() == rat_func(Poly([1]), Poly([0, 1]))
    z = impedance("L", 3) + impedance("R", 2) + impedance("C", Fraction(1, 2))
    assert z == rat_func(Poly([2, 2, 3]), Poly([0, 1]))
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
    assert impedance("L", 3) == 3 * s
    assert impedance("C", Fraction(1, 2)) == 2 / s
    assert impedance("R", 2).witness is Witness.STRUCTURAL
    with pytest.raises(NonPositiveValue):
        impedance("R", 0)
    with pytest.raises(NonPositiveValue):
        impedance("C", -1)


def test_is_positive_sampled():
    assert is_positive_sampled(s.inv(), [1, 2, 10])
    assert not is_positive_sampled(s - 1, [Fraction(1, 2), 2])
    assert not is_positive_sampled(ZERO, [1])
    with pytest.raises(EmptySampleSet):
        is_positive_sampled(ONE, [])
    with pytest.raises(PoleAtPoint):
        is_positive_sampled((s - 1).inv(), [1])
    with pytest.raises(ValueError):
        is_positive_sampled(ONE, [0])


def test_witness_is_not_part_of_equality():
    a = impedance("R", 2)
    b = from_rat(2)
    assert a == b and hash(a) == hash(b)
    assert a.witness != b.witness


def test_constants_hash_like_their_values():
    assert ONE == 1 and ONE == Fraction(1)
    assert len({ONE, 1, Fraction(1)}) == 1
    assert hash(from_rat(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(ZERO) == hash(0)


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
        assert z.witness is Witness.STRUCTURAL
        assert is_positive_sampled(z, DEFAULT_SAMPLE_POINTS)


def test_parse_examples():
    assert parse_ratfunc("(3*s^2+2*s+2)/(s)") == rat_func(Poly([2, 2, 3]), Poly([0, 1]))
    assert parse_ratfunc("1/2") == from_rat(Fraction(1, 2))
    assert parse_ratfunc("2/s") == 2 / s
    assert parse_ratfunc("(s^2+1)/(s+2)") == rat_func(Poly([1, 0, 1]), Poly([2, 1]))
    assert parse_ratfunc("-s+3") == 3 - s
    assert parse_ratfunc("3s^2 + 2s + 2") == 3 * s**2 + 2 * s + 2


@given(ratfuncs())
def test_print_parse_round_trip(a):
    assert parse_ratfunc(str(a)) == a


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


@given(ratfuncs())
def test_num_den_view_rebuilds_the_value(a):
    assert a.den.lead == 1
    assert RatFunc(a.num, a.den) == a
    assert a.as_integer_pair() == (Poly(a.n), Poly(a.d))


def test_nontrivial_gcd_of_non_primitive_inputs():
    # (2s+2)(3s-1) / ((4s+4)(s+5))
    r = RatFunc([-2, 4, 6], [20, 24, 4])
    assert (r.n, r.d) == ((-1, 3), (10, 2))
    assert str(r) == "(3*s-1)/(2*s+10)"
    assert r.num == Poly([Fraction(-1, 2), Fraction(3, 2)]) and r.den == Poly([5, 1])
    assert r == (3 * s - 1) / (2 * s + 10)


def test_large_coefficients():
    big = 10**299
    num, den = [big + 7, -3 * big, 1], [2 * big - 1, 5]
    r = RatFunc(num, den)
    _assert_canonical(r)
    text = str(r)
    assert str(big + 7) in text and parse_ratfunc(text) == r
    assert r.eval_at(2) == Fraction(big + 7 - 6 * big + 4, 2 * big - 1 + 10)
    assert (r * r.inv()).is_one() and r - r == ZERO
