"""The pointwise-covering evaluation that jetforge.solver replaced, kept as a test oracle.

``eval_scalars`` substitutes a Scalar for every variable of a polynomial
and multiplies each monomial out from its coefficient;
``_freeze_univariate`` walks the whole symbol body once per jet
coordinate, pinning x to the point and the other jet coordinates to zero;
``_nonlinear_witness`` tries the coordinates in order, solves an equation
of degree 1 at the point by its one root and a higher one over the
rationals, and falls back on ``eval_scalars`` for the constant;
``_linear_witness`` divides g(x0) by the first graded-lex coefficient
that does not vanish at the point, the constructive route linear symbols
took before they were frozen like any other.  The one-pass grouping in
``jetforge.solver`` must return equal witnesses (equal jets for a linear
symbol: only the no-witness note differs), and
``jetforge.symbols.evaluate_general`` equal values.
"""

from __future__ import annotations

from fractions import Fraction

from jetforge import roots
from jetforge.algebra import MultiPoly, RationalPoint, rational_point
from jetforge.errors import DimensionMismatch
from jetforge.jets import JetVector, _indices
from jetforge.scalar import Scalar
from jetforge.solver import PCPWitness
from jetforge.symbols import GeneralSymbol, LinearSymbol


def eval_scalars(self: MultiPoly, values) -> Scalar:
    """Exact value with arbitrary Scalar substitutions per variable."""
    vals = [Scalar.coerce(v) for v in values]
    if len(vals) != self.num_vars:
        raise DimensionMismatch(
            f"{len(vals)} values for {self.num_vars} variables"
        )
    total = Scalar()
    for alpha, c in self.terms.items():
        f = c
        for x, e in zip(vals, alpha):
            if e:
                f = f * x**e
        total = total + f
    return total


def _freeze_univariate(gsym: GeneralSymbol, x0, var: int) -> list[Scalar]:
    """Coefficients in y_var after pinning x = x0 and the other jet
    coordinates to zero."""
    m = gsym.base_dim
    coords = rational_point(x0)
    coeffs: dict[int, Scalar] = {}
    for exps, c in gsym.body.terms.items():
        if any(e for j, e in enumerate(exps[m:]) if j != var and e):
            continue
        f = Fraction(1)
        for x, e in zip(coords, exps[:m]):
            if e:
                f *= x**e
        d = exps[m + var]
        coeffs[d] = coeffs.get(d, Scalar()) + c * f
    top = max(coeffs, default=0)
    return [coeffs.get(d, Scalar()) for d in range(top + 1)]


def _nonlinear_witness(
    gsym: GeneralSymbol, g: MultiPoly, x0: RationalPoint
) -> PCPWitness:
    gx = g.evaluate(x0)
    m = gsym.base_dim
    jet_vars = gsym.jet_variables()
    chosen = None
    univariate = None
    for var in range(len(jet_vars)):
        coeffs = _freeze_univariate(gsym, x0, var)
        if len(coeffs) > 1 and any(coeffs[1:]):
            chosen = var
            univariate = coeffs
            break
    if chosen is None:
        constant = eval_scalars(
            gsym.body,
            [Scalar(c) for c in rational_point(x0)]
            + [Scalar()] * len(jet_vars),
        )
        if constant == gx:
            return PCPWitness(JetVector.zeros(m, gsym.order))
        return PCPWitness(
            None,
            "freeze-and-solve: every single-coordinate freeze is constant "
            "and misses the target value",
        )

    equation = list(univariate)
    equation[0] = equation[0] - gx
    alpha = jet_vars[chosen]
    if max(d for d, c in enumerate(equation) if c) == 1:
        root = -equation[0] / equation[1]
        return PCPWitness(JetVector.from_mapping(m, gsym.order, {alpha: root}))
    label = "y[" + ",".join(str(a) for a in alpha) + "]"

    if all(c.is_real for c in equation):
        real_eq = [c.re for c in equation]
        gcd_note = ""
    else:
        real_eq = roots.poly_gcd(
            [c.re for c in equation], [c.im for c in equation]
        )
        gcd_note = " (common roots of the real and imaginary parts)"

    root = roots.first_rational_root(real_eq)
    if root is not None:
        jet = JetVector.from_mapping(m, gsym.order, {alpha: Scalar(root)})
        return PCPWitness(jet)

    count = roots.count_real_roots(real_eq)
    depends = {
        j
        for exps in gsym.body.terms
        for j, e in enumerate(exps[m:])
        if e
    }
    exhaustive = depends == {chosen}
    note = (
        f"freeze-and-solve univariate in {label}{gcd_note}: no rational "
        f"root; isolated {count} real root(s)"
    )
    if exhaustive and count == 0:
        note += "; the reduction is exhaustive, so no real witness exists"
    return PCPWitness(None, note)


def _linear_witness(
    sym: LinearSymbol, g: MultiPoly, x0: RationalPoint
) -> PCPWitness:
    gx = g.evaluate(x0)
    for alpha in _indices(sym.base_dim, sym.order):
        coeff = sym.terms.get(alpha)
        if coeff is None:
            continue
        value = coeff.evaluate(x0)
        if value:
            jet = JetVector.from_mapping(
                sym.base_dim, sym.order, {alpha: gx / value}
            )
            return PCPWitness(jet)
    if not gx:
        return PCPWitness(JetVector.zeros(sym.base_dim, sym.order))
    return PCPWitness(
        None, "every coefficient vanishes at the point but g does not"
    )
