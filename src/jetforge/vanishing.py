"""Vanishing order of a symbol at a point, and its removal by prolongation.

A symbol vanishes to order exactly c at x0 when every coefficient's
derivatives through order c vanish there while some order c+1 derivative
does not.  Prolonging c+1 times always produces a nonzero fiber map at
such a point; ``desingularization_order`` finds that minimal level by
direct computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import RationalPoint, _point, shift
from .jets import weight
from .symbols import LinearSymbol, prolong

NOT_VANISHING = "not_vanishing"
EXACTLY = "exactly"
IDENTICALLY_ZERO = "identically_zero"


@dataclass(frozen=True)
class VanishingReport:
    point: tuple
    kind: str
    order: Optional[int] = None

    def to_json_dict(self) -> dict:
        if self.kind == EXACTLY:
            order = {"exactly": self.order}
        else:
            order = self.kind
        return {"point": [str(c) for c in self.point], "order": order}


def vanishing_order(sym: LinearSymbol, x0: RationalPoint) -> VanishingReport:
    """Classify the vanishing order of all coefficients at a point.

    For a polynomial coefficient the lowest total degree after recentring
    at x0 equals the order of its first nonvanishing derivative there, so
    the classification is exact and always terminates.
    """
    coords = _point(x0, sym.base_dim)
    point = tuple(x0)
    if sym.is_zero:
        return VanishingReport(point, IDENTICALLY_ZERO)
    low = min(shift(coeff, coords).min_degree for coeff in sym.terms.values())
    if low == 0:
        return VanishingReport(point, NOT_VANISHING)
    return VanishingReport(point, EXACTLY, low - 1)


def desingularization_order(
    sym: LinearSymbol, x0: RationalPoint, cap: int
) -> Optional[int]:
    """Minimal prolongation level whose fiber matrix at x0 is nonzero.

    Prolongs level by level and stops at the first level carrying a
    coefficient that survives evaluation at x0; the lower levels were
    tested already, so only the new components are.  Returns None when
    every level through ``cap`` gives the zero matrix.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    point = _point(x0, sym.base_dim)
    for level in range(cap + 1):
        components = prolong(sym, level).components.items()
        new = [comp for beta, comp in components if weight(beta) == level]
        if any(coeff.evaluate(point) for comp in new for coeff in comp.terms.values()):
            return level
    return None


def finsupp_scan(sym: LinearSymbol, grid) -> list[VanishingReport]:
    """Pointwise vanishing classification over a grid of points."""
    return [vanishing_order(sym, x0) for x0 in grid]
