"""jetforge: exact jet calculus for scalar partial differential operators.

Everything is computed over the Gaussian rationals, so each identity the
engine claims (prolongation formulas, vanishing orders, jet solutions)
is an exact equality, never an approximation.
"""

from .algebra import (
    MultiPoly,
    RationalPoint,
    derivative,
    evaluate,
    format_poly,
    hermite_interpolate,
    jet_quotient,
    local_inverse_truncated,
    rational_point,
    taylor_jet,
    taylor_polynomial,
)
from .errors import (
    BadDirection,
    DimensionMismatch,
    DuplicatePoints,
    JetforgeError,
    NotAUnit,
    OrderTooHigh,
    ParseError,
    UnsolvableError,
)
from .jets import (
    JetSpec,
    JetVector,
    MultiIndex,
    enumerate_multiindices,
    jet_dimension,
    project,
)
from .parser import (
    parse_operator,
    parse_pdo,
    parse_point,
    parse_polynomial,
)
from .scalar import Scalar
from .solver import (
    LiftResult,
    PCPWitness,
    RankReport,
    Solution,
    borel_realize,
    check_surjectivity,
    lift_jet,
    membership_I,
    pcp_check,
    residual_vanishes,
    solve,
    solve_at_points,
    solve_to_order,
)
from .symbols import (
    GeneralSymbol,
    LinearSymbol,
    ProlongedSymbol,
    apply_operator,
    evaluate_general,
    fiber_matrix,
    format_general,
    format_operator,
    lewy_symbol,
    principal_part,
    prolong,
    total_derivative,
)
from .vanishing import (
    EXACTLY,
    IDENTICALLY_ZERO,
    NOT_VANISHING,
    VanishingReport,
    desingularization_order,
    finsupp_scan,
    vanishing_order,
)

__version__ = "0.1.0"


def schema_path():
    """Filesystem path of the shipped CLI report JSON schema."""
    from importlib import resources  # here, not at import: a fifth of that time

    return resources.files(__package__) / "schemas" / "report.schema.json"
