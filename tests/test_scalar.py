import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from jetforge.scalar import Scalar, _from_gaussian, _to_gaussian
from kernel_oracle import FractionScalar

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
scalars = st.builds(Scalar, rationals, rationals)
# ints and Fractions, the plain numbers a Scalar meets on either side
numbers = st.one_of(st.integers(-6, 6), rationals)


def test_construction_and_equality():
    assert Scalar(2) == 2
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar("3/4").re == Fraction(3, 4)
    assert Scalar(0, 1) != 1
    assert Scalar(1, 0) == Scalar(1)


def test_floats_are_refused():
    with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
        Scalar(0.5)


def test_lowest_terms_storage():
    s = Scalar(Fraction(2, 4), Fraction(-3, -6))
    assert s.re.numerator == 1 and s.re.denominator == 2
    assert s.im.numerator == 1 and s.im.denominator == 2


def test_i_squared_is_minus_one():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)


def test_division():
    assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)
    z = Scalar(3, 4)
    assert z / z == 1
    for zero in (Scalar(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / zero


def test_powers():
    assert Scalar(0, 1) ** 4 == 1
    assert Scalar(2, 1) ** 0 == 1
    with pytest.raises(ValueError):
        Scalar(2) ** -1


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverses(a):
    assert a + (-a) == 0
    if a:
        assert a * (Scalar(1) / a) == 1


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_text_forms():
    assert str(Scalar(Fraction(3, 2))) == "3/2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(0, -3)) == "-3*i"
    assert str(Scalar(2, -1)) == "(2 - i)"
    assert str(Scalar(2, 1)) == "(2 + i)"
    assert str(Scalar(0, Fraction(5, 3))) == "5/3*i"
    assert str(Scalar(1, 2)) == "(1 + 2*i)"
    assert str(Scalar(1, -2)) == "(1 - 2*i)"


# -- the Gaussian-integer conversion pair the integer kernels use ----------

def test_gaussian_conversion_examples():
    assert _to_gaussian([]) == (1, [])
    assert _from_gaussian(1, []) == []
    values = [Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(0, Fraction(-2, 5)),
              Scalar(), Scalar(7)]
    assert _to_gaussian(values) == (30, [(15, 10), (0, -12), (0, 0), (210, 0)])
    assert _from_gaussian(*_to_gaussian(values)) == values


@given(st.lists(scalars, max_size=6))
def test_gaussian_conversion_round_trips(values):
    den, pairs = _to_gaussian(values)
    assert all(type(x) is int for pair in pairs for x in pair)
    parts = [f for v in values for f in (v.re, v.im)]
    assert den == math.lcm(*[f.denominator for f in parts])
    back = _from_gaussian(den, pairs)
    assert back == values
    assert [str(v) for v in back] == [str(v) for v in values]


# -- the stored form: one Gaussian integer over one denominator ------------

def _triple(s):
    return s._re, s._im, s._den


def _is_canonical(s):
    re, im, den = _triple(s)
    ints = all(type(x) is int for x in (re, im, den))
    return ints and den > 0 and math.gcd(re, im, den) == 1


@given(scalars, scalars, numbers)
def test_every_operation_leaves_the_canonical_form(a, b, q):
    results = [
        Scalar(a.re, a.im), a + b, a - b, a * b, a - a, -a, a.conjugate(), a ** 3,
        a + q, q + a, a - q, q - a, a * q, q * a,
    ]
    results += [a / b] if b else []
    results += [a / q] if q else []
    results += [q / a] if a else []
    assert all(_is_canonical(r) for r in results)
    # equal values store equal triples
    assert _triple(a * b) == _triple(b * a)
    assert _triple((a + b) - b) == _triple(a)
    assert all(_triple(Scalar(r.re, r.im)) == _triple(r) for r in results)


def test_stored_triples_of_examples():
    assert _triple(Scalar(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 6)
    assert _triple(Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2))) == (1, 0, 1)
    assert _triple(Scalar(0, Fraction(-2, 4))) == (0, -1, 2)
    assert _triple(Scalar(1) / Scalar(0, -2)) == (0, 1, 2)
    assert _triple(Scalar(Fraction(3, 4)) / Fraction(-3, 2)) == (-1, 0, 2)


@given(numbers)
def test_real_scalar_equals_and_hashes_as_its_rational(q):
    for s in (Scalar(q), Scalar(q) * 3 / 3, Scalar(q, 1) - Scalar(0, 1)):
        assert s == q and q == s
        assert hash(s) == hash(q)
        assert s != q + 1 and s != Scalar(q, 1)


def test_dict_keyed_by_a_fraction_finds_the_equal_scalar():
    table = {Fraction(1, 2): "half", 3: "three"}
    assert table[Scalar(1, 0) / 2] == "half"
    assert table[Scalar(Fraction(3, 2)) * 2] == "three"


# -- differential oracle: the former two-Fraction Scalar -------------------

# zero parts make purely imaginary, real and zero values common
parts = st.one_of(st.just(0), rationals)


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    if isinstance(v, (Scalar, FractionScalar)):
        return v.re, v.im, str(v), repr(v), bool(v), v.is_real
    return v


@given(parts, parts, parts, parts, numbers, st.integers(0, 4))
@example(0, Fraction(-2, 3), 0, 0, 0, 3)  # i-multiple; zero Scalar and int divisors
@example(0, 0, Fraction(1, 2), 1, Fraction(-5, 4), 2)  # a Fraction over zero
def test_scalar_matches_the_fraction_oracle(xr, xi, yr, yi, q, n):
    x, y = Scalar(xr, xi), Scalar(yr, yi)
    old_x, old_y = FractionScalar(xr, xi), FractionScalar(yr, yi)
    assert _outcome(lambda v: v, x) == _outcome(lambda v: v, old_x)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
        assert _outcome(op, x, y) == _outcome(op, old_x, old_y)
        assert _outcome(op, x, q) == _outcome(op, old_x, q)
        assert _outcome(op, q, x) == _outcome(op, q, old_x)
    unary = (
        operator.neg, lambda v: v.conjugate(), lambda v: v ** n,
        lambda v: v - v, lambda v: v + (-v),  # sums that cancel to zero
    )
    for fn in unary:
        assert _outcome(fn, x) == _outcome(fn, old_x)
