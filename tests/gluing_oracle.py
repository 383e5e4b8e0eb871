"""The polynomial-level gluing that jetforge.algebra replaced, kept as a test oracle.

``local_inverse_truncated`` inverts the recentred, truncated polynomial
by a geometric series in full polynomial arithmetic, and
``hermite_interpolate`` normalises each bump to 1 at its point, multiplies
that inverse by the realized target jet and differentiates the product
back into a jet.  ``shift`` recentres by full binomial expansion and
``taylor_jet`` builds one derivative polynomial per multiindex, so the
oracle shares no recentring code with jetforge.  The truncated
recentring and jet-quotient code must return equal polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from jetforge.algebra import (
    MultiPoly,
    RationalPoint,
    _centred,
    distinct_points,
    rational_point,
)
from jetforge.errors import DimensionMismatch, NotAUnit
from jetforge.jets import JetVector, MultiIndex, _tree, weight
from jetforge.scalar import Scalar


def shift(p: MultiPoly, x0: RationalPoint) -> MultiPoly:
    """Recentre: returns q with q(u) = p(u + x0)."""
    if len(x0) != p.num_vars:
        raise DimensionMismatch(
            f"point of length {len(x0)} for {p.num_vars} variables"
        )
    coords = rational_point(x0)
    if not any(coords):
        return p
    acc: dict[MultiIndex, Scalar] = {}
    for alpha, coeff in p.terms.items():
        per_var = []
        for e, c in zip(alpha, coords):
            if e == 0 or c == 0:
                per_var.append([(e, Fraction(1))])
            else:
                per_var.append(
                    [(t, Fraction(math.comb(e, t)) * c ** (e - t)) for t in range(e + 1)]
                )
        for combo in product(*per_var):
            key = tuple(t for t, _ in combo)
            f = Fraction(1)
            for _, w in combo:
                f *= w
            s = acc.get(key, Scalar()) + coeff * f
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return MultiPoly(p.num_vars, acc)


def taylor_jet(p: MultiPoly, x0: RationalPoint, k: int) -> JetVector:
    """The order-k jet of p at x0: raw derivatives D^alpha p(x0), |alpha| <= k."""
    if k < 0:
        raise ValueError("jet order must be >= 0")
    if len(x0) != p.num_vars:
        raise DimensionMismatch(
            f"point of length {len(x0)} for {p.num_vars} variables"
        )
    point = rational_point(x0)
    # walk the multiindex tree so each D^alpha p is derived once
    derivatives: dict[MultiIndex, MultiPoly] = {(0,) * p.num_vars: p}
    entries = [p.evaluate(point)]
    for alpha, parent, i in _tree(p.num_vars, k):
        derivatives[alpha] = derivatives[parent].partial(i)
        entries.append(derivatives[alpha].evaluate(point))
    return JetVector(p.num_vars, k, entries)


def taylor_polynomial(jet: JetVector, x0: RationalPoint) -> MultiPoly:
    """The polynomial sum of jet[alpha]/alpha! * (x - x0)^alpha, by ``shift``."""
    back = tuple(-c for c in rational_point(x0))
    return shift(MultiPoly(jet.base_dim, _centred(jet)), back)


def truncate(p: MultiPoly, k: int) -> MultiPoly:
    """Drop all terms of total degree above k."""
    return MultiPoly(p.num_vars, {a: c for a, c in p.terms.items() if weight(a) <= k})


def local_inverse_truncated(p: MultiPoly, x0: RationalPoint, k: int) -> MultiPoly:
    """Degree <= k polynomial q with jet_k(p*q - 1, x0) = 0.

    Geometric-series inversion of the recentred polynomial; requires
    p(x0) != 0.
    """
    if k < 0:
        raise ValueError("truncation order must be >= 0")
    c0 = p.evaluate(x0)
    if not c0:
        raise NotAUnit("polynomial vanishes at the expansion point")
    # only the k-jet of p matters for a degree <= k inverse
    centred = truncate(shift(p, x0), k)
    tail = (centred - c0) * (Scalar(1) / c0)
    series = MultiPoly.constant(p.num_vars, 1)
    power = MultiPoly.constant(p.num_vars, 1)
    for _ in range(k):
        power = truncate(power * (-tail), k)
        if not power:
            break
        series = series + power
    series = series * (Scalar(1) / c0)
    back = tuple(-c for c in rational_point(x0))
    return shift(series, back)


def separating_form(points: list[RationalPoint]) -> MultiPoly:
    """The linear form sum_i t^(i-1) x_i for the least integer t >= 0 at
    which no two of the points take the same value, found pair by pair."""
    m = len(points[0])
    t = 0
    while True:
        weights = [Fraction(t) ** i for i in range(m)]
        if all(
            sum(w * (a - b) for w, a, b in zip(weights, p, q))
            for p, q in combinations(points, 2)
        ):
            break
        t += 1
    form = MultiPoly.zero(m)
    for i, w in enumerate(weights):
        form = form + MultiPoly.monomial(m, tuple(int(i == j) for j in range(m)), w)
    return form


def hermite_interpolate(points, jets, k: int) -> MultiPoly:
    """Polynomial matching a prescribed order-k jet at each of several points.

    Each point x_j gets the bump polynomial B_j, the product over l != j
    of ((f - f(x_l)) / (f(x_j) - f(x_l)))^(k+1) for the separating linear
    form f: it equals 1 at x_j and vanishes to order >= k+1 at every other
    point.  The jet data is carried by a degree <= k factor corrected with
    the truncated local inverse of B_j.  The result matches every
    prescribed jet exactly.
    """
    points = distinct_points(points)
    m = len(points[0])
    if len(jets) != len(points):
        raise DimensionMismatch("one jet per point required")
    for p in points:
        if len(p) != m:
            raise DimensionMismatch("interpolation points have mixed dimensions")
    for jet in jets:
        if jet.base_dim != m or jet.order != k:
            raise DimensionMismatch(
                f"jets must have dimension {m} and order {k}"
            )

    form = separating_form(points)
    result = MultiPoly.zero(m)
    for j, (pj, jet) in enumerate(zip(points, jets)):
        bump_poly = MultiPoly.constant(m, 1)
        for l, pl in enumerate(points):
            if l == j:
                continue
            factor = form - form.evaluate(pl)
            denom = factor.evaluate(pj)
            bump_poly = bump_poly * (factor * (Scalar(1) / denom)) ** (k + 1)
        inv = local_inverse_truncated(bump_poly, pj, k)
        target = taylor_polynomial(jet, pj)
        corrected = taylor_polynomial(taylor_jet(target * inv, pj, k), pj)
        result = result + corrected * bump_poly
    return result
