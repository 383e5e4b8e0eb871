"""Exact Gaussian-rational arithmetic, the coefficient field of the engine.

A :class:`Scalar` is a complex number ``a + b*i`` whose real and imaginary
parts are arbitrary-precision :class:`fractions.Fraction` values, so field
operations are exact and equality means equality.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def power(base, n: int, one):
    """base**n (n >= 0) by square-and-multiply, never squaring past n's top bit."""
    out = one
    while True:
        if n & 1:
            out = base if out is one else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


class Scalar:
    """A Gaussian rational.  Treat instances as immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(as_fraction(value))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re + other, self.im)
        if isinstance(other, Scalar):
            return Scalar(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re - other, self.im)
        if isinstance(other, Scalar):
            return Scalar(self.re - other.re, self.im - other.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        if isinstance(other, Scalar):
            return Scalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re / other, self.im / other)
        if isinstance(other, Scalar):
            nsq = other.re * other.re + other.im * other.im
            if nsq == 0:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar(
                (self.re * other.re + self.im * other.im) / nsq,
                (self.im * other.re - self.re * other.im) / nsq,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers take nonnegative integer exponents")
        return power(self, n, ONE)

    def __repr__(self):
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "-" if self.im < 0 else "+"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re} {sign} {imag})"


def _to_gaussian(values) -> tuple[int, list[tuple[int, int]]]:
    """Scalars as Gaussian integers over one common denominator.

    Returns ``(den, [(re, im)])`` with each value equal to
    ``(re + im*i) / den``; ``den`` is the least common denominator (1 for
    no values).  The integer kernels convert once with this on the way in
    and once with :func:`_from_gaussian` on the way out.
    """
    values = list(values)
    den = math.lcm(*[f.denominator for v in values for f in (v.re, v.im)])
    return den, [
        (
            v.re.numerator * (den // v.re.denominator),
            v.im.numerator * (den // v.im.denominator),
        )
        for v in values
    ]


def _from_gaussian(den: int, pairs) -> list[Scalar]:
    """The Scalars ``(re + im*i) / den`` of Gaussian integers ``(re, im)``."""
    return [Scalar(Fraction(re, den), Fraction(im, den)) for re, im in pairs]


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
