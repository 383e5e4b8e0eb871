"""Total symbols of scalar differential operators and their prolongations.

A linear operator P = sum_a f_a(x) D^a acts through its total symbol
lambda = sum_a f_a y_a on jet coordinates y_a.  The total derivative

    d_i^# = d/dx_i + sum_a y_{a+e_i} d/dy_a

lifts d/dx_i to jet coordinates; iterating it over a multiindex beta
produces the components of the prolongation, the family (d_beta^# lambda)
for |beta| <= s, which maps (r+s)-jets to s-jets fiberwise.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (
    MultiPoly,
    RationalPoint,
    _join_signed,
    _point,
    derivative,
    format_poly,
)
from .errors import BadDirection, DimensionMismatch
from .jets import (
    JetVector,
    MultiIndex,
    _index_of,
    _indices,
    _tree,
    bump,
    graded_key,
    jet_dimension,
    weight,
)
from .scalar import Scalar, _term_text


class LinearSymbol:
    """Total symbol of a linear operator: a map ``alpha -> f_alpha``.

    The declared order may exceed the largest stored term weight (useful
    for symbols meant to live in a higher-order jet space).  Treat
    instances as immutable.
    """

    __slots__ = ("base_dim", "order", "terms", "_hash")

    def __init__(self, base_dim: int, order: int, terms=None):
        if base_dim < 1:
            raise ValueError("base dimension must be >= 1")
        if order < 0:
            raise ValueError("operator order must be >= 0")
        clean: dict[MultiIndex, MultiPoly] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != base_dim:
                raise DimensionMismatch(
                    f"term index {alpha} has length {len(alpha)}, expected {base_dim}"
                )
            if weight(alpha) > order:
                raise DimensionMismatch(
                    f"term index {alpha} exceeds declared order {order}"
                )
            if not isinstance(coeff, MultiPoly):
                coeff = MultiPoly.constant(base_dim, coeff)
            if coeff.num_vars != base_dim:
                raise DimensionMismatch(
                    f"coefficient in {coeff.num_vars} variables on a "
                    f"{base_dim}-dimensional symbol"
                )
            if coeff:
                clean[alpha] = coeff
        self.base_dim = base_dim
        self.order = order
        self.terms = clean
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LinearSymbol):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.base_dim, self.order, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        return f"LinearSymbol({self.base_dim}, {self.order}, {format_operator(self)!r})"

    def __str__(self):
        return format_operator(self)


def apply_operator(sym: LinearSymbol, f: MultiPoly) -> MultiPoly:
    """Let the operator act: returns sum_a f_a * D^a f."""
    if f.num_vars != sym.base_dim:
        raise DimensionMismatch(
            f"operand in {f.num_vars} variables under a "
            f"{sym.base_dim}-dimensional operator"
        )
    out = MultiPoly.zero(sym.base_dim)
    for alpha, coeff in sym.terms.items():
        d = derivative(f, alpha)
        if d:
            out = out + coeff * d
    return out


# every fresh operator adds entries that hold whole symbols, so the bound
# sets peak memory; 1024 still holds a level-8 prolongation for m <= 4
@lru_cache(maxsize=1024)
def _total_derivative_cached(sym: LinearSymbol, i: int) -> LinearSymbol:
    # a sum that cancels stays as a zero coefficient: LinearSymbol drops it
    out: dict[MultiIndex, MultiPoly] = {}
    for alpha, coeff in sym.terms.items():
        for key, poly in ((alpha, coeff.partial(i)), (bump(alpha, i), coeff)):
            prev = out.get(key)
            out[key] = poly if prev is None else prev + poly
    return LinearSymbol(sym.base_dim, sym.order + 1, out)


def total_derivative(sym: LinearSymbol, i: int) -> LinearSymbol:
    """d_i^# applied to the symbol: sum_a ((d_i f_a) y_a + f_a y_{a+e_i})."""
    if not 1 <= i <= sym.base_dim:
        raise BadDirection(f"direction {i} outside 1..{sym.base_dim}")
    return _total_derivative_cached(sym, i)


class ProlongedSymbol:
    """The level-s prolongation: components d_beta^# lambda for |beta| <= s."""

    __slots__ = ("base", "level", "components")

    def __init__(self, base: LinearSymbol, level: int, components):
        self.base = base
        self.level = level
        self.components = components

    def __repr__(self):
        return f"ProlongedSymbol(level={self.level}, base={self.base!r})"


def prolong(sym: LinearSymbol, s: int) -> ProlongedSymbol:
    """Compute all iterated total derivatives up to weight s.

    The components come in graded-lex order of beta, the order of
    ``enumerate_multiindices(m, s)``.  Factors are applied with the
    earliest direction outermost; the total derivatives commute, so the
    order only fixes the computation path.
    """
    if s < 0:
        raise ValueError("prolongation level must be >= 0")
    comps: dict[MultiIndex, LinearSymbol] = {(0,) * sym.base_dim: sym}
    for beta, parent, i in _tree(sym.base_dim, s):
        comps[beta] = _total_derivative_cached(comps[parent], i)
    return ProlongedSymbol(sym, s, comps)


def fiber_matrix(prosym: ProlongedSymbol, x0: RationalPoint):
    """Evaluate the prolonged symbol as an exact matrix on jet fibers.

    Rows run over beta (|beta| <= level), columns over alpha
    (|alpha| <= r + level), both graded-lex; entry (beta, alpha) is the
    coefficient of y_alpha in component beta at x0.
    """
    sym = prosym.base
    m = sym.base_dim
    point = _point(x0, m)
    cols = _indices(m, sym.order + prosym.level)
    col_pos = _index_of(m, sym.order + prosym.level)
    values: dict[MultiPoly, Scalar] = {}  # few distinct coefficients recur
    matrix = []
    for beta in _indices(m, prosym.level):
        row = [Scalar()] * len(cols)
        for alpha, coeff in prosym.components[beta].terms.items():
            if coeff not in values:
                values[coeff] = coeff.evaluate(point)
            row[col_pos[alpha]] = values[coeff]
        matrix.append(row)
    return matrix


def principal_part(sym: LinearSymbol) -> LinearSymbol:
    """Terms of top declared order only; may be the zero symbol."""
    return LinearSymbol(
        sym.base_dim,
        sym.order,
        {a: c for a, c in sym.terms.items() if weight(a) == sym.order},
    )


class GeneralSymbol:
    """A possibly nonlinear symbol: a polynomial in x_1..x_m and the jet
    coordinates y_alpha, |alpha| <= r.

    Variable layout of the body: the m base coordinates first, then the
    jet coordinates in graded-lex order.
    """

    __slots__ = ("base_dim", "order", "body")

    def __init__(self, base_dim: int, order: int, body: MultiPoly):
        expected = base_dim + jet_dimension(base_dim, order)
        if body.num_vars != expected:
            raise DimensionMismatch(
                f"body has {body.num_vars} variables, expected {expected}"
            )
        self.base_dim = base_dim
        self.order = order
        self.body = body

    @classmethod
    def from_linear(cls, sym: LinearSymbol) -> "GeneralSymbol":
        m = sym.base_dim
        fiber = jet_dimension(m, sym.order)
        pos = _index_of(m, sym.order)
        body_terms: dict[MultiIndex, Scalar] = {}
        for alpha, coeff in sym.terms.items():
            yslot = m + pos[alpha]
            for exps, c in coeff.terms.items():
                key = tuple(exps) + tuple(
                    1 if j == yslot - m else 0 for j in range(fiber)
                )
                body_terms[key] = c
        return cls(m, sym.order, MultiPoly(m + fiber, body_terms))

    def jet_variables(self) -> list[MultiIndex]:
        return list(_indices(self.base_dim, self.order))

    def __eq__(self, other):
        if not isinstance(other, GeneralSymbol):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.order == other.order
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.base_dim, self.order, self.body))

    def __repr__(self):
        return f"GeneralSymbol({self.base_dim}, {self.order}, {format_general(self)!r})"

    def __str__(self):
        return format_general(self)


def evaluate_general(gsym: GeneralSymbol, x0: RationalPoint, p: JetVector) -> Scalar:
    """Exact value of the symbol at a base point and a jet fiber point."""
    point = _point(x0, gsym.base_dim)
    if p.base_dim != gsym.base_dim or p.order != gsym.order:
        raise DimensionMismatch(
            f"jet of shape ({p.base_dim}, {p.order}) for a symbol of shape "
            f"({gsym.base_dim}, {gsym.order})"
        )
    return gsym.body.evaluate(point + p.entries)


def lewy_symbol() -> LinearSymbol:
    """Hans Lewy's operator d_1 + i*d_2 - 2i(x1 + i*x2)*d_3 on R^3."""
    m = 3
    return LinearSymbol(
        m,
        1,
        {
            (1, 0, 0): MultiPoly.constant(m, 1),
            (0, 1, 0): MultiPoly.constant(m, Scalar(0, 1)),
            (0, 0, 1): MultiPoly(
                m, {(1, 0, 0): Scalar(0, -2), (0, 1, 0): Scalar(2)}
            ),
        },
    )


def format_operator(sym: LinearSymbol) -> str:
    """Render a linear symbol in the operator DSL (round-trips exactly)."""
    if not sym.terms:
        return "0"
    parts = []
    constant = (0,) * sym.base_dim
    for alpha in sorted(sym.terms, key=graded_key):
        coeff = sym.terms[alpha]
        slot = "d[" + ",".join(str(a) for a in alpha) + "]"
        # the one zero-exponent term of a constant coefficient, else None
        c = coeff.terms.get(constant) if len(coeff.terms) == 1 else None
        if c is not None:
            parts.append(_term_text(c, slot))
        elif len(coeff.terms) > 1:
            parts.append(f"({format_poly(coeff)})*{slot}")
        else:
            parts.append(f"{format_poly(coeff)}*{slot}")
    return _join_signed(parts)


def format_general(gsym: GeneralSymbol) -> str:
    """Render a general symbol body with y[...] jet-coordinate atoms."""
    m = gsym.base_dim
    jet_vars = gsym.jet_variables()

    def namer(j: int) -> str:
        if j <= m:
            return f"x{j}"
        alpha = jet_vars[j - m - 1]
        return "y[" + ",".join(str(a) for a in alpha) + "]"

    return format_poly(gsym.body, namer)
