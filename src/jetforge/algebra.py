"""Sparse multivariate polynomials over the Gaussian rationals.

Polynomials are stored as ``multiindex -> Scalar`` maps with zero
coefficients pruned; all operations are exact.  This module also carries
the jet-level operations on polynomials: Taylor jets, jet quotients, and
multi-point jet interpolation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import count, product
from operator import add, mul

from .errors import DimensionMismatch, DuplicatePoints, NotAUnit
from .jets import JetVector, MultiIndex, _indices, factorial, graded_key, weight
from .scalar import (ONE, Scalar, _from_gaussian, _term_text, _to_gaussian,
                     as_fraction, power)

RationalPoint = tuple[Fraction, ...]


def rational_point(coords) -> RationalPoint:
    """Coerce a sequence of ints/Fractions/strings to an exact point."""
    return tuple(as_fraction(c) for c in coords)


def _point(x0, m: int, coerce=rational_point) -> tuple:
    """x0 coerced to exact coordinates, after checking it has dimension m."""
    if len(x0) != m:
        raise DimensionMismatch(f"point of length {len(x0)} for dimension {m}")
    return coerce(x0)


def _coordinates(x0) -> tuple:
    """Scalars and Fractions as they are, anything else as a Fraction."""
    return tuple(
        c if isinstance(c, (Scalar, Fraction)) else as_fraction(c) for c in x0
    )


def distinct_points(points) -> list[RationalPoint]:
    """Coerce a nonempty list of pairwise distinct points."""
    pts = [rational_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    for a, p in enumerate(pts):
        if p in pts[a + 1 :]:
            raise DuplicatePoints(f"point ({', '.join(map(str, p))}) repeated")
    return pts


class MultiPoly:
    """A sparse polynomial in ``num_vars`` variables over Scalar.

    Treat instances as immutable; every operation returns a new value.
    """

    __slots__ = ("num_vars", "terms", "_hash")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 1:
            raise ValueError("polynomials need at least one variable")
        clean: dict[MultiIndex, Scalar] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != num_vars or min(alpha) < 0:
                raise DimensionMismatch(
                    f"exponent {alpha} invalid for {num_vars} variables"
                )
            c = Scalar.coerce(coeff)
            if c:
                clean[alpha] = c
        self.num_vars = num_vars
        self.terms = clean
        self._hash = None

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "MultiPoly":
        """Wrap terms already known valid: exponents of length num_vars,
        nonzero Scalar coefficients (the results of the operations below)."""
        out = object.__new__(cls)
        out.num_vars, out.terms, out._hash = num_vars, terms, None
        return out

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "MultiPoly":
        """The coordinate x_i (1-based)."""
        if not 1 <= i <= num_vars:
            raise DimensionMismatch(f"variable index {i} outside 1..{num_vars}")
        alpha = tuple(1 if j == i - 1 else 0 for j in range(num_vars))
        return cls._trusted(num_vars, {alpha: ONE})

    @classmethod
    def monomial(cls, num_vars: int, alpha: MultiIndex, coeff=1) -> "MultiPoly":
        return cls(num_vars, {tuple(alpha): coeff})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((weight(a) for a in self.terms), default=-1)

    @property
    def min_degree(self) -> int:
        """Smallest total degree among stored terms; -1 for zero."""
        return min((weight(a) for a in self.terms), default=-1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.num_vars == other.num_vars and self.terms == other.terms
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            if not c:
                return not self.terms
            return self.terms == {(0,) * self.num_vars: c}
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_vars, frozenset(self.terms.items())))
        return self._hash

    def _check_same(self, other: "MultiPoly") -> None:
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"mixing polynomials in {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = MultiPoly.constant(self.num_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            s = out.get(alpha, Scalar()) + c
            if s:
                out[alpha] = s
            else:
                out.pop(alpha, None)
        return MultiPoly._trusted(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(
            self.num_vars, {a: -c for a, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Scalar, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            if not c:
                return MultiPoly(self.num_vars)
            return MultiPoly._trusted(
                self.num_vars, {a: v * c for a, v in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        # Gaussian integers over den1*den2.  A sum that cancels is dropped at
        # once, so a term that comes back goes last: the parser locates an
        # error at the first term, so term order is observable
        den1, left = _to_gaussian(self.terms.values())
        den2, right = _to_gaussian(other.terms.values())
        right = list(zip(other.terms, right))
        out: dict[MultiIndex, tuple[int, int]] = {}
        for a1, (r1, i1) in zip(self.terms, left):
            for a2, (r2, i2) in right:
                key = tuple(map(add, a1, a2))
                re, im = out.get(key, (0, 0))
                re += r1 * r2 - i1 * i2
                im += r1 * i2 + i1 * r2
                if re or im:
                    out[key] = (re, im)
                else:
                    del out[key]
        return MultiPoly._trusted(
            self.num_vars, dict(zip(out, _from_gaussian(den1 * den2, out.values())))
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return power(self, n, MultiPoly.constant(self.num_vars, 1))

    def partial(self, i: int) -> "MultiPoly":
        """Exact partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.num_vars:
            raise DimensionMismatch(f"variable index {i} outside 1..{self.num_vars}")
        # distinct terms have distinct derivatives, and c * alpha_j != 0
        j = i - 1
        return MultiPoly._trusted(self.num_vars, {
            alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]: c * alpha[j]
            for alpha, c in self.terms.items()
            if alpha[j]
        })

    def evaluate(self, x0) -> Scalar:
        """Exact value at a point whose coordinates are rationals or Scalars;
        at a rational point each monomial is a Fraction product."""
        coords = _point(x0, self.num_vars, _coordinates)
        total = Scalar()
        for alpha, c in self.terms.items():
            f = Fraction(1)
            for x, e in zip(coords, alpha):
                if e:
                    f *= x**e
            total = total + c * f
        return total

    def __repr__(self):
        return f"MultiPoly({self.num_vars}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def derivative(p: MultiPoly, alpha: MultiIndex) -> MultiPoly:
    """Iterated partial derivative D^alpha p."""
    if len(alpha) != p.num_vars:
        raise DimensionMismatch(
            f"multiindex of length {len(alpha)} for {p.num_vars} variables"
        )
    out = p
    for i, e in enumerate(alpha, start=1):
        for _ in range(e):
            if not out:
                return out
            out = out.partial(i)
    return out


def _recentred(p: MultiPoly, x0: RationalPoint, k: int) -> dict[MultiIndex, Scalar]:
    """Coefficients of weight <= k of q(u) = p(u + x0), which are D^a p(x0)/a!.

    Binomial expansion of every term, with each variable's exponent range
    cut at min(e, k) so nothing above weight k is built.  The point is held
    as integers c over one denominator d, and a term's contribution of
    weight w over d**(|alpha| - w) is scaled to d**deg by d**(deg - |alpha|
    + w).  Those powers are computed when first needed: a table of every
    power up to the degree would cost quadratic time and memory in it.
    """
    coords = _point(x0, p.num_vars)
    d, point = _to_gaussian(map(Scalar, coords))
    den, coeffs = _to_gaussian(p.terms.values())
    deg = max(p.degree, 0)
    d_power = cache(d.__pow__)
    acc: dict[MultiIndex, tuple[int, int]] = {}
    for alpha, (re, im) in zip(p.terms, coeffs):
        per_var = []
        for e, (c, _) in zip(alpha, point):
            if e == 0 or c == 0:
                per_var.append([(e, 1)])
            else:
                per_var.append(
                    [(t, math.comb(e, t) * c ** (e - t)) for t in range(min(e, k) + 1)]
                )
        lift = deg - sum(alpha)
        for combo in product(*per_var):
            key, factors = zip(*combo)
            w = sum(key)
            if w > k:
                continue
            f = d_power(lift + w) * math.prod(factors)
            sr, si = acc.get(key, (0, 0))
            sr += re * f
            si += im * f
            if sr or si:
                acc[key] = (sr, si)
            else:
                del acc[key]
    return dict(zip(acc, _from_gaussian(den * d_power(deg), acc.values())))


def shift(p: MultiPoly, x0: RationalPoint) -> MultiPoly:
    """Recentre: returns q with q(u) = p(u + x0)."""
    return MultiPoly(p.num_vars, _recentred(p, x0, max(p.degree, 0)))


def taylor_jet(p: MultiPoly, x0: RationalPoint, k: int) -> JetVector:
    """The order-k jet of p at x0: raw derivatives D^alpha p(x0), |alpha| <= k."""
    centred = _recentred(p, x0, k)
    zero = Scalar()
    entries = [centred.get(a, zero) * factorial(a) for a in _indices(p.num_vars, k)]
    return JetVector(p.num_vars, k, entries)


def _centred(jet: JetVector) -> dict[MultiIndex, Scalar]:
    """Centred Taylor coefficients D^a f(x0)/a! of a jet, in graded-lex order."""
    alphas = _indices(jet.base_dim, jet.order)
    return {a: v / factorial(a) for a, v in zip(alphas, jet.entries)}


def taylor_polynomial(jet: JetVector, x0: RationalPoint) -> MultiPoly:
    """The polynomial sum of jet[alpha]/alpha! * (x - x0)^alpha.

    Its jet at x0 reproduces the input exactly.
    """
    back = tuple(-c for c in _point(x0, jet.base_dim))
    return shift(MultiPoly(jet.base_dim, _centred(jet)), back)


def jet_quotient(num: JetVector, den: JetVector) -> JetVector:
    """The k-jet of f/g at a point from the k-jets of f and g there.

    Solves the truncated Cauchy product num = q*den on centred coefficients
    weight by weight in graded-lex order, so every q_b it uses is known
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).
    """
    if num.spec != den.spec:
        raise DimensionMismatch("jet specs differ")
    g = {b: gb for b, gb in _centred(den).items() if gb}
    g0 = g.pop((0,) * den.base_dim, None)
    if g0 is None:
        raise NotAUnit("polynomial vanishes at the expansion point")
    q: dict[MultiIndex, Scalar] = {}
    for a, acc in _centred(num).items():
        for b, gb in g.items():
            qr = q.get(tuple(x - y for x, y in zip(a, b)))  # None unless b <= a
            if qr:
                acc = acc - gb * qr
        q[a] = acc / g0
    return JetVector(num.base_dim, num.order, [v * factorial(a) for a, v in q.items()])


def local_inverse_truncated(p: MultiPoly, x0: RationalPoint, k: int) -> MultiPoly:
    """Degree <= k polynomial q with jet_k(p*q - 1, x0) = 0; needs p(x0) != 0."""
    one = JetVector.from_mapping(p.num_vars, k, {(0,) * p.num_vars: 1})
    return taylor_polynomial(jet_quotient(one, taylor_jet(p, x0, k)), x0)


def _separating_form(points) -> list[int]:
    """Weights (1, t, t^2, ...) of l(x) = sum_i t^(i-1) x_i for the least
    integer t >= 0 at which l separates the points.  Each pair of points
    rules out at most m-1 values of t (the roots of a nonzero polynomial of
    degree <= m-1), so some t <= (m-1)*C(n, 2) works."""
    m = len(points[0])
    for t in count():
        weights = [t**i for i in range(m)]
        if len({sum(map(mul, weights, p)) for p in points}) == len(points):
            return weights


def hermite_interpolate(points, jets) -> MultiPoly:
    """Polynomial matching a prescribed jet at each of several points.

    The jets share one order k, which is read from them.  Each point x_j
    gets the bump B_j = prod_{l != j} (l(x) - l(x_l))^(k+1) for the
    separating linear form l: nonzero at x_j, vanishing to order >= k+1 at
    every other point.  It is multiplied by the degree <= k polynomial
    whose k-jet at x_j is jet_j / jet(B_j), so a constant factor of B_j
    would cancel.  The result, of degree <= (k+1)(n-1) + k for n points,
    matches every prescribed jet exactly.
    """
    points = distinct_points(points)
    m = len(points[0])
    if len(jets) != len(points):
        raise DimensionMismatch("one jet per point required")
    for p in points:
        if len(p) != m:
            raise DimensionMismatch("interpolation points have mixed dimensions")
    k = jets[0].order
    for jet in jets:
        if jet.base_dim != m or jet.order != k:
            raise DimensionMismatch(
                f"jets must have dimension {m} and order {k}"
            )

    weights = _separating_form(points)
    form = MultiPoly(m, dict(zip(_indices(m, 1)[1:], weights)))
    powers = [(form - sum(map(mul, weights, p))) ** (k + 1) for p in points]
    result = MultiPoly.zero(m)
    for j, (pj, jet) in enumerate(zip(points, jets)):
        bump_poly = MultiPoly.constant(m, 1)
        for l, power_l in enumerate(powers):
            if l != j:
                bump_poly = bump_poly * power_l
        local = jet_quotient(jet, taylor_jet(bump_poly, pj, k))
        result = result + taylor_polynomial(local, pj) * bump_poly
    return result


def format_poly(p: MultiPoly, var=None) -> str:
    """Render a polynomial in the DSL syntax (parse round-trips exactly)."""
    if not p:
        return "0"
    namer = var or (lambda j: f"x{j}")
    parts = []
    for alpha in sorted(p.terms, key=graded_key):
        c = p.terms[alpha]
        factors = [
            f"{namer(j + 1)}^{e}" if e > 1 else namer(j + 1)
            for j, e in enumerate(alpha)
            if e
        ]
        mono = "*".join(factors)
        parts.append(_term_text(c, mono))
    return _join_signed(parts)


def _join_signed(parts: list[str]) -> str:
    """Join term texts with " + ", or " - " in place of a leading minus."""
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out
