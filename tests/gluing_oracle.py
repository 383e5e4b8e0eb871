"""The polynomial-level gluing that jetforge.algebra replaced, kept as a test oracle.

``local_inverse_truncated`` inverts the recentred, truncated polynomial
by a geometric series in full polynomial arithmetic, and
``hermite_interpolate`` multiplies that inverse by the realized target
jet and differentiates the product back into a jet.  The jet-quotient
code must return equal polynomials.
"""

from __future__ import annotations

from jetforge.algebra import (
    MultiPoly,
    RationalPoint,
    _norm_squared,
    distinct_points,
    rational_point,
    shift,
    taylor_jet,
    taylor_polynomial,
)
from jetforge.errors import DimensionMismatch, NotAUnit
from jetforge.jets import weight
from jetforge.scalar import Scalar


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


def hermite_interpolate(points, jets, k: int) -> MultiPoly:
    """Polynomial matching a prescribed order-k jet at each of several points.

    Each point x_j gets a bump polynomial B_j that equals 1 at x_j and
    vanishes to order >= k+1 at every other point; the jet data is carried
    by a degree <= k factor corrected with the truncated local inverse of
    B_j.  The result matches every prescribed jet exactly.
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

    result = MultiPoly.zero(m)
    for j, (pj, jet) in enumerate(zip(points, jets)):
        bump_poly = MultiPoly.constant(m, 1)
        for l, pl in enumerate(points):
            if l == j:
                continue
            nsq = _norm_squared(m, pl)
            denom = nsq.evaluate(pj)
            bump_poly = bump_poly * (nsq * (Scalar(1) / denom)) ** (k + 1)
        inv = local_inverse_truncated(bump_poly, pj, k)
        target = taylor_polynomial(jet, pj)
        corrected = taylor_polynomial(taylor_jet(target * inv, pj, k), pj)
        result = result + corrected * bump_poly
    return result
