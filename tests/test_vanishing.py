import random
from fractions import Fraction

import pytest

from jetforge.algebra import MultiPoly, shift
from jetforge.errors import DimensionMismatch
from jetforge.jets import enumerate_multiindices
from jetforge.symbols import (
    LinearSymbol,
    _total_derivative_cached,
    fiber_matrix,
    prolong,
)
from jetforge.vanishing import (
    EXACTLY,
    IDENTICALLY_ZERO,
    NOT_VANISHING,
    desingularization_order,
    finsupp_scan,
    vanishing_order,
)

ZERO1 = (Fraction(0),)


def x_squared_ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.monomial(1, (2,))})


def ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.constant(1, 1)})


def engineered_symbol(rng, m, r, c, x0):
    """Symbol with vanishing order exactly c at x0: a nonvanishing symbol
    scaled by a homogeneous degree-(c+1) form in (x - x0)."""
    alphas = enumerate_multiindices(m, r)
    coeff = MultiPoly(m, {rng.choice(alphas): Fraction(rng.randint(-2, 2))})
    bump = 1
    while coeff.evaluate(x0) + bump == 0:
        bump += 1
    base = LinearSymbol(m, r, {rng.choice(alphas): coeff + bump})
    slice_c1 = [a for a in enumerate_multiindices(m, c + 1) if sum(a) == c + 1]
    centred = MultiPoly(
        m, {rng.choice(slice_c1): Fraction(rng.choice([1, -1, 2, 3]))}
    )
    form = shift(centred, tuple(-v for v in x0))
    return LinearSymbol(m, r, {a: form * f for a, f in base.terms.items()})


# -- vanishing order --------------------------------------------------------

def test_exact_first_order_zero():
    report = vanishing_order(x_squared_ddx(), ZERO1)
    assert report.kind == EXACTLY and report.order == 1


def test_report_carries_the_exact_point():
    assert vanishing_order(x_squared_ddx(), ("2/4",)).to_json_dict() == {
        "point": ["1/2"], "order": "not_vanishing",
    }
    assert vanishing_order(x_squared_ddx(), ("0/3",)).to_json_dict() == {
        "point": ["0"], "order": {"exactly": 1},
    }


def test_not_vanishing():
    for x0 in (ZERO1, (Fraction(7),)):
        assert vanishing_order(ddx(), x0).kind == NOT_VANISHING


def test_identically_zero():
    assert vanishing_order(LinearSymbol(1, 1, {}), ZERO1).kind == IDENTICALLY_ZERO


def test_dimension_check():
    with pytest.raises(DimensionMismatch):
        vanishing_order(ddx(), (Fraction(0), Fraction(0)))


def test_vanishing_order_derivative_characterization():
    # independent oracle: derivatives of every coefficient at the point
    from jetforge.algebra import derivative

    sym = x_squared_ddx()
    coeff = sym.terms[(1,)]
    assert derivative(coeff, (0,)).evaluate(ZERO1) == 0
    assert derivative(coeff, (1,)).evaluate(ZERO1) == 0
    assert derivative(coeff, (2,)).evaluate(ZERO1) == 2


# -- desingularization ------------------------------------------------------

def test_desingularization_of_quadratic_zero():
    assert desingularization_order(x_squared_ddx(), ZERO1, cap=5) == 2


def test_already_nonzero_needs_no_prolongation():
    assert desingularization_order(ddx(), ZERO1, cap=5) == 0


def test_nonzero_symbol_stops_before_any_total_derivative():
    # an operator no other test builds, so any derivative taken would miss
    sym = LinearSymbol(
        2, 1, {(1, 0): MultiPoly(2, {(0, 0): Fraction(11, 13), (0, 3): 1})}
    )
    before = _total_derivative_cached.cache_info().misses
    assert desingularization_order(sym, (Fraction(0), Fraction(1)), cap=8) == 0
    assert _total_derivative_cached.cache_info().misses == before


def test_first_order_zero_in_two_variables():
    # x1*y_(0,1) + x2*y_(1,0) at the origin
    sym = LinearSymbol(
        2,
        1,
        {
            (0, 1): MultiPoly.variable(2, 1),
            (1, 0): MultiPoly.variable(2, 2),
        },
    )
    assert desingularization_order(sym, (Fraction(0), Fraction(0)), cap=5) == 1


def test_zero_symbol_exceeds_any_cap():
    assert desingularization_order(LinearSymbol(1, 1, {}), ZERO1, cap=4) is None


def test_negative_cap_is_refused():
    with pytest.raises(ValueError, match=r"^cap must be >= 0$"):
        desingularization_order(ddx(), ZERO1, cap=-1)


def test_desingularization_law_random():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        c = rng.randint(0, 3)
        x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(m))
        sym = engineered_symbol(rng, m, r, c, x0)
        report = vanishing_order(sym, x0)
        assert report.kind == EXACTLY and report.order == c
        assert desingularization_order(sym, x0, cap=c + 2) == c + 1


def test_decreasing_order_under_coefficient_derivative():
    # order exactly c >= 1 drops to exactly c-1 along some direction
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        c = rng.randint(1, 3)
        x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(m))
        sym = engineered_symbol(rng, m, r, c, x0)
        orders = []
        for i in range(1, m + 1):
            derived = LinearSymbol(
                m, r, {a: f.partial(i) for a, f in sym.terms.items()}
            )
            report = vanishing_order(derived, x0)
            if report.kind == EXACTLY:
                orders.append(report.order)
        assert any(o == c - 1 for o in orders)


def test_monotone_consistency_zero_matrices_below_order():
    rng = random.Random(19)
    for _ in range(20):
        m = rng.randint(1, 2)
        r = rng.randint(0, 1)
        c = rng.randint(0, 2)
        x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(m))
        sym = engineered_symbol(rng, m, r, c, x0)
        for s in range(c + 1):
            matrix = fiber_matrix(prolong(sym, s), x0)
            assert all(not e for row in matrix for e in row)


# -- grid scans -------------------------------------------------------------

def test_scan_constant_symbol():
    grid = [(Fraction(v),) for v in (-2, 0, 5)]
    assert all(r.kind == NOT_VANISHING for r in finsupp_scan(ddx(), grid))


def test_scan_quadratic_symbol():
    grid = [(Fraction(v),) for v in (-1, 0, 1)]
    kinds = [r.kind for r in finsupp_scan(x_squared_ddx(), grid)]
    assert kinds == [NOT_VANISHING, EXACTLY, NOT_VANISHING]
    assert finsupp_scan(x_squared_ddx(), grid)[1].order == 1


def test_scan_empty_grid():
    assert finsupp_scan(ddx(), []) == []


def test_report_serialization():
    report = vanishing_order(x_squared_ddx(), ZERO1)
    assert report.to_json_dict() == {"point": ["0"], "order": {"exactly": 1}}
    flat = vanishing_order(ddx(), ZERO1)
    assert flat.to_json_dict() == {"point": ["0"], "order": "not_vanishing"}
    zero = vanishing_order(LinearSymbol(1, 1, {}), ZERO1)
    assert zero.to_json_dict()["order"] == "identically_zero"
