import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetforge.scalar import Scalar, _from_gaussian, _to_gaussian

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
scalars = st.builds(Scalar, rationals, rationals)


def test_construction_and_equality():
    assert Scalar(2) == 2
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar("3/4").re == Fraction(3, 4)
    assert Scalar(0, 1) != 1
    assert Scalar(1, 0) == Scalar(1)


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
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


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
