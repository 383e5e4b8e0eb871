"""The Scalar kernels that jetforge replaced with Gaussian-integer ones,
kept as test oracles.

``_eliminate``/``rank``/``solve`` are the sparse ``{column: Scalar}``
elimination, ``multiply`` is ``MultiPoly.__mul__``'s product loop and
``_recentred`` the truncated recentring, each in ``Scalar`` arithmetic.
The integer kernels must return equal values: the same rank, pivots and
solution, and the same terms in the same order.

``FractionScalar`` is the ``Scalar`` that held its real and imaginary
parts as two ``Fraction``s; the ``(re, im, den)`` ``Scalar`` must give
the same values, text and errors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from jetforge.algebra import MultiPoly, RationalPoint, _point
from jetforge.jets import MultiIndex
from jetforge.scalar import ONE, ZERO, Scalar, as_fraction, power


def _eliminate(matrix, rhs=()):
    """Reduce each sparse row against the unit pivot rows found so far.

    The right-hand side rides along as column ``n_cols``, which is never a
    pivot.  Returns ``(pivot_rows keyed by leading column, n_cols,
    consistent)``.
    """
    n_cols = len(matrix[0]) if matrix else 0
    pivot_rows = {}
    consistent = True
    for entries, b in zip(matrix, rhs or [ZERO] * len(matrix)):
        row = {j: v for j, v in enumerate(entries) if v}
        if b:
            row[n_cols] = b
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                if lead >= n_cols:
                    consistent = False
                else:
                    inv = ONE / row[lead]
                    pivot_rows[lead] = {j: v * inv for j, v in row.items()}
                break
            f = row[lead]
            for j, v in prow.items():
                w = row.get(j, ZERO) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return pivot_rows, n_cols, consistent


def rank(matrix) -> int:
    return len(_eliminate(matrix)[0])


def solve(matrix, rhs):
    """Solve M x = b exactly, free variables pinned to zero.

    Returns ``(solution, pivot_columns)``; solution is None when the
    system is inconsistent.
    """
    b = [Scalar.coerce(v) for v in rhs]
    if len(b) != len(matrix):
        raise ValueError("right-hand side length does not match row count")
    pivot_rows, n_cols, consistent = _eliminate(matrix, b)
    pivots = sorted(pivot_rows)
    if not consistent:
        return None, pivots
    # back-substitute in descending pivot order; x[n_cols] = -1 makes the
    # right-hand side entry of each pivot row count with a plus sign
    x = [ZERO] * n_cols + [-ONE]
    for col in reversed(pivots):
        x[col] = -sum((v * x[j] for j, v in pivot_rows[col].items() if x[j]), ZERO)
    return x[:n_cols], pivots


def multiply(self: MultiPoly, other: MultiPoly) -> MultiPoly:
    """The product loop of ``MultiPoly.__mul__`` for two polynomials."""
    self._check_same(other)
    out: dict[MultiIndex, Scalar] = {}
    for a1, c1 in self.terms.items():
        for a2, c2 in other.terms.items():
            key = tuple(x + y for x, y in zip(a1, a2))
            s = out.get(key, Scalar()) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return MultiPoly._trusted(self.num_vars, out)


def _recentred(p: MultiPoly, x0: RationalPoint, k: int) -> dict[MultiIndex, Scalar]:
    """Coefficients of weight <= k of q(u) = p(u + x0), which are D^a p(x0)/a!.

    Binomial expansion of every term, with each variable's exponent range
    cut at min(e, k) so nothing above weight k is built.
    """
    coords = _point(x0, p.num_vars)
    acc: dict[MultiIndex, Scalar] = {}
    for alpha, coeff in p.terms.items():
        per_var = []
        for e, c in zip(alpha, coords):
            if e == 0 or c == 0:
                per_var.append([(e, 1)])
            else:
                per_var.append(
                    [(t, math.comb(e, t) * c ** (e - t)) for t in range(min(e, k) + 1)]
                )
        for combo in product(*per_var):
            key = tuple(t for t, _ in combo)
            if sum(key) > k:
                continue
            s = acc.get(key, Scalar()) + coeff * math.prod(w for _, w in combo)
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


class FractionScalar:
    """A Gaussian rational.  Treat instances as immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def coerce(cls, value) -> "FractionScalar":
        if isinstance(value, FractionScalar):
            return value
        return cls(as_fraction(value))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "FractionScalar":
        return FractionScalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, FractionScalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return FractionScalar(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionScalar(self.re + other, self.im)
        if isinstance(other, FractionScalar):
            return FractionScalar(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionScalar(self.re - other, self.im)
        if isinstance(other, FractionScalar):
            return FractionScalar(self.re - other.re, self.im - other.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionScalar(self.re * other, self.im * other)
        if isinstance(other, FractionScalar):
            return FractionScalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionScalar(self.re / other, self.im / other)
        if isinstance(other, FractionScalar):
            nsq = other.re * other.re + other.im * other.im
            if nsq == 0:
                raise ZeroDivisionError("division by zero Scalar")
            return FractionScalar(
                (self.re * other.re + self.im * other.im) / nsq,
                (self.im * other.re - self.re * other.im) / nsq,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        return FractionScalar.coerce(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers take nonnegative integer exponents")
        return power(self, n, FractionScalar(1))

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
