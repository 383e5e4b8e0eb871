"""Exact jet lifting and polynomial solution construction.

Solving P(f) = g to order s at a point means finding an (r+s)-jet that the
prolonged symbol maps onto the s-jet of g; realizing that jet as its Taylor
polynomial then gives an honest polynomial solution.  Gluing at several
points goes through exact jet interpolation.  A pointwise covering
witness is found by one freeze for linear and nonlinear symbols alike: a
frozen equation of degree 1 is solved exactly in Q(i), a higher degree
over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg, roots
from .algebra import (
    MultiPoly,
    RationalPoint,
    _point,
    distinct_points,
    hermite_interpolate,
    taylor_jet,
    taylor_polynomial,
)
from .errors import DimensionMismatch, UnsolvableError
from .jets import JetVector, MultiIndex, _indices, _slot_text, jet_dimension
from .scalar import ZERO, Scalar
from .symbols import GeneralSymbol, LinearSymbol, apply_operator, fiber_matrix, prolong


@dataclass(frozen=True)
class LiftResult:
    """Outcome of one exact jet lift; pivots record the elimination path."""

    jet: Optional[JetVector]
    pivots: tuple[MultiIndex, ...] = ()

    @property
    def solved(self) -> bool:
        return self.jet is not None


@dataclass(frozen=True)
class RankReport:
    rank: int
    full: bool


@dataclass(frozen=True)
class PCPWitness:
    """A jet fiber point hitting the target value, or a note on why not."""

    jet: Optional[JetVector]
    note: str = ""

    @property
    def found(self) -> bool:
        return self.jet is not None


def lift_jet(sym: LinearSymbol, x0: RationalPoint, target: JetVector) -> LiftResult:
    """Solve the prolonged fiber map for a preimage of the target jet.

    Elimination runs in graded-lex column order and free variables are
    pinned to zero, so identical inputs give identical jets and pivots.
    """
    if target.base_dim != sym.base_dim:
        raise DimensionMismatch(
            f"target jet over R^{target.base_dim} for a symbol over "
            f"R^{sym.base_dim}"
        )
    s = target.order
    matrix = fiber_matrix(prolong(sym, s), x0)
    solution, pivot_cols = linalg.solve(matrix, list(target.entries))
    columns = _indices(sym.base_dim, sym.order + s)
    pivots = tuple(columns[c] for c in pivot_cols)
    if solution is None:
        return LiftResult(None, pivots)
    return LiftResult(JetVector(sym.base_dim, sym.order + s, solution), pivots)


@dataclass(frozen=True)
class Solution:
    """A polynomial solving P(f) = g to order s at each point, with the
    per-point lifts (solution jet and pivots) it realizes."""

    polynomial: MultiPoly
    lifts: tuple[LiftResult, ...]


def _check_rhs(sym, g: MultiPoly) -> None:
    if g.num_vars != sym.base_dim:
        raise DimensionMismatch(
            f"right-hand side in {g.num_vars} variables for dimension "
            f"{sym.base_dim}"
        )


def solve(sym: LinearSymbol, g: MultiPoly, points, s: int) -> Solution:
    """Lift the s-jet of g at every point, then realize the lifts.

    One point is realized by its Taylor polynomial; several are glued
    with exact interpolation, which reproduces each solution jet, so the
    per-point s-jet guarantee survives.  Raises UnsolvableError, carrying
    the point and the pivots, when some s-jet of g is outside the image
    of the prolonged symbol.
    """
    _check_rhs(sym, g)
    pts = distinct_points(points)
    lifts = []
    for p in pts:
        lifted = lift_jet(sym, p, taylor_jet(g, p, s))
        if not lifted.solved:
            raise UnsolvableError(
                f"no order-{s} solution jet at {p}", point=p, pivots=lifted.pivots
            )
        lifts.append(lifted)
    if len(pts) == 1:
        poly = taylor_polynomial(lifts[0].jet, pts[0])
    else:
        poly = hermite_interpolate(pts, [l.jet for l in lifts])
    return Solution(poly, tuple(lifts))


def residual_vanishes(
    sym: LinearSymbol, g: MultiPoly, f: MultiPoly, points, s: int
) -> bool:
    """The exact post-check: the s-jet of P(f) - g is zero at every point."""
    residual = apply_operator(sym, f) - g
    return all(taylor_jet(residual, p, s).is_zero for p in points)


def solve_at_points(
    sym: LinearSymbol, g: MultiPoly, points, s: int
) -> MultiPoly:
    """One polynomial solving P(f) = g to order s at every listed point."""
    return solve(sym, g, points, s).polynomial


def check_surjectivity(sym: LinearSymbol, x0: RationalPoint, k: int) -> RankReport:
    """Exact rank of the level-k prolonged fiber map at x0."""
    matrix = fiber_matrix(prolong(sym, k), x0)
    r = linalg.rank(matrix)
    return RankReport(rank=r, full=r == jet_dimension(sym.base_dim, k))


def membership_I(
    sym: LinearSymbol, g: MultiPoly, x0: RationalPoint, s: int
) -> bool:
    """Does every jet of g through order s lift through the symbol at x0?

    Rows of weight w touch only columns of weight <= r + w, so each
    lower-level system is the top-left block of the level-s one: a
    level-s lift truncates to a lift at every level k <= s.
    """
    _check_rhs(sym, g)
    return lift_jet(sym, x0, taylor_jet(g, x0, s)).solved


def _witness(
    gsym: GeneralSymbol, g: MultiPoly, x0: RationalPoint
) -> PCPWitness:
    gx = g.evaluate(x0)
    m = gsym.base_dim
    # one pass: the x-parts of the body terms, grouped by the one (jet
    # coordinate, power) a term carries, or None for none; a term carrying
    # two vanishes once all jet coordinates but one are pinned to zero
    parts: dict = {}
    depends = set()
    for exps, c in gsym.body.terms.items():
        carried = [(j, e) for j, e in enumerate(exps[m:]) if e]
        depends.update(j for j, _ in carried)
        if len(carried) < 2:
            parts.setdefault(carried[0] if carried else None, {})[exps[:m]] = c
    values = {
        key: MultiPoly._trusted(m, terms).evaluate(x0) for key, terms in parts.items()
    }
    constant = values.pop(None, ZERO)
    chosen = min((j for (j, _), v in values.items() if v), default=None)
    if chosen is None:
        if constant == gx:
            return PCPWitness(JetVector.zeros(m, gsym.order))
        return PCPWitness(
            None,
            "freeze-and-solve: every single-coordinate freeze is constant "
            "and misses the target value",
        )

    top = max(d for (j, d), v in values.items() if j == chosen and v)
    equation = [constant - gx]
    equation += [values.get((chosen, d), ZERO) for d in range(1, top + 1)]
    alpha = gsym.jet_variables()[chosen]
    if top == 1:
        # the one root is exact in Q(i)
        root = -equation[0] / equation[1]
        return PCPWitness(JetVector.from_mapping(m, gsym.order, {alpha: root}))
    label = _slot_text("y", alpha)

    # the real roots are those of both parts; a real equation comes back monic
    im = [c.im for c in equation]
    real_eq = roots.poly_gcd([c.re for c in equation], im)
    gcd_note = " (common roots of the real and imaginary parts)" if any(im) else ""

    root = roots.first_rational_root(real_eq)
    if root is not None:
        jet = JetVector.from_mapping(m, gsym.order, {alpha: Scalar(root)})
        return PCPWitness(jet)

    count = roots.count_real_roots(real_eq)
    exhaustive = depends == {chosen}
    note = (
        f"freeze-and-solve univariate in {label}{gcd_note}: no rational "
        f"root; isolated {count} real root(s)"
    )
    if exhaustive and count == 0:
        note += "; the reduction is exhaustive, so no real witness exists"
    return PCPWitness(None, note)


def pcp_check(sym, g: MultiPoly, x0: RationalPoint) -> PCPWitness:
    """Search for a jet fiber point p with symbol(p) = g(x0).

    A linear symbol is solved as the symbol of degree 1 it is.  All jet
    coordinates but the first graded-lex one on which the symbol depends
    at x0 are pinned to zero.  If the equation left has degree 1 at x0,
    its one root is the witness, exact in Q(i).  A higher degree is
    solved over the rationals; a miss is reported with the count of
    isolated real roots, and is only a proof of emptiness when the
    reduction covers the symbol's whole jet dependence.
    """
    if not isinstance(sym, (LinearSymbol, GeneralSymbol)):
        raise TypeError(f"expected a symbol, got {type(sym).__name__}")
    _check_rhs(sym, g)
    x0 = _point(x0, sym.base_dim)
    if isinstance(sym, LinearSymbol):
        sym = GeneralSymbol.from_linear(sym)
    return _witness(sym, g, x0)
