"""Exact Gaussian-rational arithmetic, the coefficient field of the engine.

A :class:`Scalar` stores one Gaussian integer over one denominator: three
ints ``(re, im, den)`` for the value ``(re + im*i) / den``, with
``den > 0`` and ``gcd(re, im, den) == 1``.  The form is canonical, so field
operations are exact and equality compares three ints.  The public
``.re`` and ``.im`` are read-only :class:`fractions.Fraction` views.
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
    """A Gaussian rational in the form above.  Treat instances as immutable."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._re, self._im, self._den = re, im, 1
            return
        re, im = as_fraction(re), as_fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        self._re = re.numerator * (den // re.denominator)
        self._im = im.numerator * (den // im.denominator)
        self._den = den

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    @property
    def is_real(self) -> bool:
        return not self._im

    def conjugate(self) -> "Scalar":
        return _scalar(self._re, -self._im, self._den)

    def __bool__(self):
        return bool(self._re or self._im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self._re == other._re
                and self._im == other._im
                and self._den == other._den
            )
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return not self._im and self._re * den == num * self._den
        return NotImplemented

    def __hash__(self):
        if self._im:
            return hash((self._re, self._im, self._den))
        return hash(self._re) if self._den == 1 else hash(Fraction(self._re, self._den))

    def __neg__(self):
        return _scalar(-self._re, -self._im, self._den)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        a, b = self._den, other._den
        if a == b:
            return _scalar(self._re + other._re, self._im + other._im, a)
        re, im = self._re * b + other._re * a, self._im * b + other._im * a
        return _scalar(re, im, a * b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        return _scalar(a * c - b * d, a * d + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        nsq = c * c + d * d
        if nsq == 0:
            raise ZeroDivisionError("division by zero Scalar")
        f = other._den
        return _scalar((a * c + b * d) * f, (b * c - a * d) * f, self._den * nsq)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers take nonnegative integer exponents")
        return power(self, n, ONE)

    def __repr__(self):
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _term_text(im, "i")
        sign = "-" if im < 0 else "+"
        return f"({re} {sign} {_term_text(abs(im), 'i')})"


def _term_text(c, mono: str) -> str:
    """The text of c times the atom or monomial ``mono``, with a
    coefficient 1 or -1 elided."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def _scalar(re: int, im: int, den: int) -> Scalar:
    """The Scalar ``(re + im*i) / den`` (den > 0), brought to canonical form."""
    if den != 1:
        g = math.gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    s = object.__new__(Scalar)
    s._re, s._im, s._den = re, im, den
    return s


def _to_gaussian(values) -> tuple[int, list[tuple[int, int]]]:
    """Scalars as Gaussian integers over one common denominator.

    Returns ``(den, [(re, im)])`` with each value equal to
    ``(re + im*i) / den``; ``den`` is the least common denominator (1 for
    no values).  The integer kernels convert once with this on the way in
    and once with :func:`_from_gaussian` on the way out.
    """
    values = list(values)
    den = math.lcm(*[v._den for v in values])
    return den, [(v._re * (k := den // v._den), v._im * k) for v in values]


def _from_gaussian(den: int, pairs) -> list[Scalar]:
    """The Scalars ``(re + im*i) / den`` of Gaussian integers ``(re, im)``."""
    return [_scalar(re, im, den) for re, im in pairs]


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
