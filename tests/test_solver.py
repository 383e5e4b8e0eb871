import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pcp_oracle

from jetforge.algebra import MultiPoly, hermite_interpolate, taylor_jet, taylor_polynomial
from jetforge.errors import DimensionMismatch, DuplicatePoints, UnsolvableError
from jetforge.jets import JetVector, enumerate_multiindices, jet_dimension
from jetforge.scalar import Scalar
from jetforge.solver import (
    check_surjectivity,
    lift_jet,
    membership_I,
    pcp_check,
    residual_vanishes,
    solve,
    solve_at_points,
)
from jetforge.symbols import (
    GeneralSymbol,
    LinearSymbol,
    apply_operator,
    evaluate_general,
    lewy_symbol,
    prolong,
)

ZERO1 = (Fraction(0),)
ORIGIN3 = (Fraction(0),) * 3


def ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.constant(1, 1)})


def x_ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.variable(1, 1)})


def x_squared_ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.monomial(1, (2,))})


# -- lifting ----------------------------------------------------------------

def test_lift_one_row_system():
    result = lift_jet(ddx(), ZERO1, JetVector(1, 0, [1]))
    assert result.solved
    assert result.jet == JetVector(1, 1, [0, 1])  # value free -> 0, slope 1
    assert result.pivots == ((1,),)


def test_lift_zero_map_cannot_hit_one():
    result = lift_jet(x_ddx(), ZERO1, JetVector(1, 0, [1]))
    assert not result.solved


def test_lift_lewy_constant_target():
    target = taylor_jet(MultiPoly.constant(3, 1), ORIGIN3, 1)
    result = lift_jet(lewy_symbol(), ORIGIN3, target)
    assert result.solved
    # post-check through the operator itself
    f = taylor_polynomial(result.jet, ORIGIN3)
    residual = apply_operator(lewy_symbol(), f) - MultiPoly.constant(3, 1)
    assert taylor_jet(residual, ORIGIN3, 1).is_zero


def test_lift_dimension_check():
    with pytest.raises(DimensionMismatch):
        lift_jet(ddx(), ZERO1, JetVector(2, 0, [1]))


def test_lift_determinism():
    coeff = MultiPoly(1, {(0,): 1, (1,): 2})
    sym = LinearSymbol(1, 1, {(1,): coeff, (0,): MultiPoly.constant(1, 3)})
    target = JetVector(1, 2, [1, 2, 3])
    first = lift_jet(sym, ZERO1, target)
    second = lift_jet(sym, ZERO1, target)
    assert first.jet == second.jet
    assert first.pivots == second.pivots


# -- Borel realization ------------------------------------------------------

def test_borel_square_jet():
    # [1, 2, 2] at 1: 1 + 2(x-1) + (x-1)^2 = x^2
    f = taylor_polynomial(JetVector(1, 2, [1, 2, 2]), (Fraction(1),))
    assert f == MultiPoly.monomial(1, (2,))


def test_borel_zero_jet():
    assert not taylor_polynomial(JetVector.zeros(2, 2), (Fraction(1), Fraction(2)))


def test_borel_constant_jet():
    f = taylor_polynomial(JetVector(1, 0, [7]), (Fraction(5),))
    assert f == MultiPoly.constant(1, 7)


def test_borel_reproduces_jet():
    rng = random.Random(37)
    for _ in range(20):
        m = rng.randint(1, 3)
        k = rng.randint(0, 3)
        jet = JetVector(
            m,
            k,
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in enumerate_multiindices(m, k)
            ],
        )
        x0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        assert taylor_jet(taylor_polynomial(jet, x0), x0, k) == jet


# -- solving at one point ---------------------------------------------------

def test_solve_constant_rhs():
    f = solve(ddx(), MultiPoly.constant(1, 1), [ZERO1], 0).polynomial
    assert f == MultiPoly.variable(1, 1)


def test_solve_linear_rhs():
    f = solve(ddx(), MultiPoly.variable(1, 1), [ZERO1], 1).polynomial
    assert f == MultiPoly(1, {(2,): Fraction(1, 2)})


def test_solve_unsolvable_raises():
    with pytest.raises(UnsolvableError) as err:
        solve(x_ddx(), MultiPoly.constant(1, 1), [ZERO1], 0)
    assert err.value.point == (Fraction(0),)


def test_solve_lewy_post_check():
    g = MultiPoly.variable(3, 1)
    f = solve(lewy_symbol(), g, [ORIGIN3], 2).polynomial
    residual = apply_operator(lewy_symbol(), f) - g
    assert taylor_jet(residual, ORIGIN3, 2).is_zero


def test_solution_jet_guarantee_random():
    rng = random.Random(41)
    for _ in range(30):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        x0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        top = [a for a in enumerate_multiindices(m, r) if sum(a) == r]
        sym = LinearSymbol(
            m,
            r,
            {
                rng.choice(top): MultiPoly.constant(m, rng.choice([1, -1, 2])),
            },
        )
        alphas = enumerate_multiindices(m, 3)
        g = MultiPoly(
            m, {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        )
        f = solve(sym, g, [x0], s).polynomial
        assert taylor_jet(apply_operator(sym, f) - g, x0, s).is_zero


# -- singular operator ------------------------------------------------------

def singular_lewy():
    scale = MultiPoly.monomial(3, (2, 0, 0))
    lewy = lewy_symbol()
    return LinearSymbol(3, 1, {a: scale * c for a, c in lewy.terms.items()})


def test_singular_lewy_flat_rhs_solvable():
    sym = singular_lewy()
    g = MultiPoly.monomial(3, (2, 1, 0))  # x1^2 x2 is 2-flat at the origin
    for s in range(3):
        f = solve(sym, g, [ORIGIN3], s).polynomial
        assert taylor_jet(apply_operator(sym, f) - g, ORIGIN3, s).is_zero


def test_singular_lewy_constant_rhs_unsolvable():
    with pytest.raises(UnsolvableError):
        solve(singular_lewy(), MultiPoly.constant(3, 1), [ORIGIN3], 0)


# -- multi-point solving ----------------------------------------------------

def test_two_point_solve():
    points = [ZERO1, (Fraction(1),)]
    f = solve_at_points(ddx(), MultiPoly.constant(1, 1), points, 0)
    df = apply_operator(ddx(), f)
    assert df.evaluate(ZERO1) == 1
    assert df.evaluate((Fraction(1),)) == 1


def test_single_point_matches_pointwise_solve():
    g = MultiPoly.variable(1, 1)
    one = solve(ddx(), g, [ZERO1], 1).polynomial
    assert solve_at_points(ddx(), g, [ZERO1], 1) == one


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoints):
        solve_at_points(ddx(), MultiPoly.constant(1, 1), [ZERO1, ZERO1], 0)


def test_multi_point_reports_failing_point():
    bad = (Fraction(0),)
    good = (Fraction(1),)
    with pytest.raises(UnsolvableError) as err:
        solve_at_points(x_ddx(), MultiPoly.constant(1, 1), [good, bad], 0)
    assert err.value.point == bad


def test_multi_point_rhs_dimension_checked():
    with pytest.raises(DimensionMismatch, match="right-hand side in 3 variables"):
        solve_at_points(ddx(), MultiPoly.variable(3, 1), [ZERO1], 0)


# -- the shared solve core --------------------------------------------------

def test_unsolvable_error_carries_lift_pivots():
    sym = x_ddx()
    g = MultiPoly.constant(1, 1)
    for s in range(3):
        expected = lift_jet(sym, ZERO1, taylor_jet(g, ZERO1, s)).pivots
        for points in ([ZERO1], [(Fraction(1),), ZERO1]):
            with pytest.raises(UnsolvableError) as err:
                solve(sym, g, points, s)
            assert err.value.point == ZERO1
            assert err.value.pivots == expected


def test_solution_records_one_lift_per_point():
    points = [ZERO1, (Fraction(1),), (Fraction(-1, 2),)]
    g = MultiPoly.variable(1, 1)
    solution = solve(ddx(), g, points, 1)
    assert solution.polynomial == solve_at_points(ddx(), g, points, 1)
    assert solution.lifts == tuple(
        lift_jet(ddx(), p, taylor_jet(g, p, 1)) for p in points
    )


def test_one_point_solve_equals_hermite_interpolant():
    # guards the single-point branch: a one-point Hermite interpolant is
    # exactly the Taylor polynomial that solve builds instead
    rng = random.Random(53)
    for _ in range(40):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        s = rng.randint(0, 1)
        x0 = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m))
        top = [a for a in enumerate_multiindices(m, r) if sum(a) == r]
        terms = {rng.choice(top): MultiPoly.constant(m, rng.choice([1, -1, 2]))}
        if r:
            terms[(0,) * m] = MultiPoly.variable(m, rng.randint(1, m))
        sym = LinearSymbol(m, r, terms)
        alphas = enumerate_multiindices(m, 3)
        g = MultiPoly(
            m, {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        )
        solution = solve(sym, g, [x0], s)
        (lifted,) = solution.lifts
        assert solution.polynomial == hermite_interpolate([x0], [lifted.jet])


def test_residual_vanishes_rejects_perturbed_solution():
    g = MultiPoly.variable(3, 1)
    points = [ORIGIN3, (Fraction(1), Fraction(0), Fraction(-1))]
    f = solve_at_points(lewy_symbol(), g, points, 1)
    assert residual_vanishes(lewy_symbol(), g, f, points, 1)
    # x1^3 is flat to order 1 at the origin but not at (1, 0, -1)
    bumped = f + MultiPoly.monomial(3, (3, 0, 0))
    assert not residual_vanishes(lewy_symbol(), g, bumped, points, 1)
    assert residual_vanishes(lewy_symbol(), g, bumped, points[:1], 1)
    shifted = f + MultiPoly.variable(3, 1)  # P(x1) = 1 misses at every point
    assert not residual_vanishes(lewy_symbol(), g, shifted, points[:1], 0)


# -- rank reports -----------------------------------------------------------

def test_lewy_full_rank():
    report = check_surjectivity(lewy_symbol(), ORIGIN3, 1)
    assert report.rank == 4 and report.full


def test_degenerate_rank_zero():
    report = check_surjectivity(x_ddx(), ZERO1, 0)
    assert report.rank == 0 and not report.full


def test_nonvanishing_symbol_rank_one_at_level_zero():
    report = check_surjectivity(ddx(), ZERO1, 0)
    assert report.rank == 1 and report.full


def test_negative_level_is_refused_with_one_message():
    message = r"^prolongation level must be >= 0$"
    with pytest.raises(ValueError, match=message):
        prolong(ddx(), -1)
    with pytest.raises(ValueError, match=message):
        check_surjectivity(ddx(), ZERO1, -1)


# -- membership -------------------------------------------------------------

def membership_by_levels(sym, g, x0, s):
    """The level-by-level definition: one lift at every order k <= s."""
    return all(lift_jet(sym, x0, taylor_jet(g, x0, k)).solved for k in range(s + 1))


def membership(sym, g, x0, s):
    """membership_I, checked against the level-by-level definition."""
    result = membership_I(sym, g, x0, s)
    assert result == membership_by_levels(sym, g, x0, s)
    return result


def rand_poly(rng, m, deg, n_terms):
    alphas = enumerate_multiindices(m, deg)
    return MultiPoly(
        m, {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(n_terms)}
    )


def test_membership_nonvanishing_principal_always_true():
    rng = random.Random(43)
    lewy = lewy_symbol()
    for _ in range(5):
        g = rand_poly(rng, 3, 2, 2)
        assert membership(lewy, g, ORIGIN3, 3)


def test_membership_zero_map_rejects_constant():
    assert not membership(x_squared_ddx(), MultiPoly.constant(1, 1), ZERO1, 0)
    assert not membership(x_squared_ddx(), MultiPoly.constant(1, 1), ZERO1, 2)


def test_membership_quartic_through_degenerate_symbol():
    # x^2 f' = x^4 has the honest solution f = x^3/3, so every jet lifts
    g = MultiPoly.monomial(1, (4,))
    assert membership(x_squared_ddx(), g, ZERO1, 4)
    honest = MultiPoly(1, {(3,): Fraction(1, 3)})
    assert apply_operator(x_squared_ddx(), honest) == g


def test_membership_single_lift_matches_level_loop():
    # symbols whose coefficients often vanish at the (often zero) point
    rng = random.Random(47)
    outcomes = set()
    for _ in range(30):
        m, r = rng.randint(1, 2), rng.randint(1, 2)
        alphas = enumerate_multiindices(m, r)
        terms = {rng.choice(alphas): rand_poly(rng, m, 2, 1) for _ in range(2)}
        sym = LinearSymbol(m, r, {a: c for a, c in terms.items() if c})
        x0 = tuple(Fraction(rng.choice([0, 0, 1, -1])) for _ in range(m))
        outcomes.add(membership(sym, rand_poly(rng, m, 3, 2), x0, rng.randint(0, 3)))
    assert outcomes == {True, False}


def test_membership_negative_order_rejected():
    with pytest.raises(ValueError):
        membership_I(ddx(), MultiPoly.constant(1, 1), ZERO1, -1)


# -- pointwise covering witnesses -------------------------------------------

def test_pcp_refuses_a_non_symbol():
    # refused before any attribute of the symbol is read
    for sym in (MultiPoly.constant(1, 1), None):
        with pytest.raises(TypeError, match="^expected a symbol, got "):
            pcp_check(sym, MultiPoly.constant(1, 1), ZERO1)

def test_linear_witness_lewy():
    witness = pcp_check(lewy_symbol(), MultiPoly.constant(3, 1), ORIGIN3)
    assert witness.found
    expected = JetVector.from_mapping(3, 1, {(1, 0, 0): 1})
    assert witness.jet == expected
    assert (
        evaluate_general(
            GeneralSymbol.from_linear(lewy_symbol()), ORIGIN3, witness.jet
        )
        == 1
    )


def test_linear_witness_scales_by_coefficient():
    sym = LinearSymbol(1, 1, {(1,): MultiPoly.constant(1, 2)})
    witness = pcp_check(sym, MultiPoly.constant(1, 3), ZERO1)
    assert witness.jet == JetVector.from_mapping(1, 1, {(1,): Fraction(3, 2)})


def test_linear_witness_zero_symbol_zero_target():
    witness = pcp_check(x_squared_ddx(), MultiPoly.variable(1, 1), ZERO1)
    assert witness.found and witness.jet.is_zero


def test_linear_witness_zero_symbol_nonzero_target():
    witness = pcp_check(x_squared_ddx(), MultiPoly.constant(1, 1), ZERO1)
    assert not witness.found


def test_nonlinear_square_positive_target():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    witness = pcp_check(square, MultiPoly.constant(1, 4), ZERO1)
    assert witness.found
    assert witness.jet == JetVector.from_mapping(1, 1, {(1,): 2})


def test_nonlinear_square_negative_target_proven_empty():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    witness = pcp_check(square, MultiPoly.constant(1, -1), ZERO1)
    assert not witness.found
    assert "0 real root" in witness.note
    assert "exhaustive" in witness.note


def test_nonlinear_irrational_roots_counted():
    # y^2 = 2 has two real but no rational solutions
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    witness = pcp_check(square, MultiPoly.constant(1, 2), ZERO1)
    assert not witness.found
    assert "2 real root" in witness.note


def test_nonlinear_complex_coefficients_use_common_roots():
    # (1+i)*y^2 = g: real solutions only when both parts vanish together
    body = MultiPoly(3, {(0, 0, 2): Scalar(1, 1)})
    sym = GeneralSymbol(1, 1, body)
    hit = pcp_check(sym, MultiPoly.zero(1), ZERO1)
    assert hit.found and hit.jet.is_zero
    miss = pcp_check(sym, MultiPoly.constant(1, 4), ZERO1)
    assert not miss.found
    assert "common roots" in miss.note


def test_witness_soundness_random_linear():
    rng = random.Random(47)
    for _ in range(40):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        alphas = enumerate_multiindices(m, r)
        coeff = MultiPoly(
            m, {rng.choice(alphas): Fraction(rng.randint(-3, 3))}
        )
        x0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        bump = 1
        while coeff.evaluate(x0) + bump == 0:
            bump += 1
        sym = LinearSymbol(m, r, {rng.choice(alphas): coeff + bump})
        g = MultiPoly(
            m, {rng.choice(alphas): Fraction(rng.randint(-3, 3))}
        )
        witness = pcp_check(sym, g, x0)
        assert witness.found
        value = evaluate_general(GeneralSymbol.from_linear(sym), x0, witness.jet)
        assert value == g.evaluate(x0)


# -- the one-pass freeze against the per-coordinate oracle -------------------

_values = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
     Fraction(1, 2), Fraction(-2, 3)]
)
_imag = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)])
_coefficients = st.builds(Scalar, _values, _imag).filter(bool)


@st.composite
def general_cases(draw):
    """A symbol body over m = 1..2 and r = 0..2 whose terms carry zero, one
    or two jet coordinates, with a point and a right-hand side."""
    m = draw(st.integers(1, 2))
    r = draw(st.integers(0, 2))
    fiber = jet_dimension(m, r)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        jet = [0] * fiber
        carried = draw(st.integers(0, min(2, fiber)))
        for j in draw(st.lists(st.integers(0, fiber - 1), min_size=carried,
                               max_size=carried, unique=True)):
            jet[j] = draw(st.integers(1, 3))
        xs = tuple(draw(st.integers(0, 2)) for _ in range(m))
        key = xs + tuple(jet)
        terms[key] = terms.get(key, Scalar()) + draw(_coefficients)
    gsym = GeneralSymbol(m, r, MultiPoly(m + fiber, terms))
    x0 = tuple(draw(_values) for _ in range(m))
    g = MultiPoly(m, {
        tuple(draw(st.integers(0, 2)) for _ in range(m)): draw(_coefficients)
        for _ in range(draw(st.integers(0, 2)))
    })
    return gsym, x0, g


@settings(max_examples=300)
@given(general_cases())
def test_nonlinear_witness_matches_per_coordinate_oracle(case):
    gsym, x0, g = case
    witness = pcp_check(gsym, g, x0)
    assert witness == pcp_oracle._nonlinear_witness(gsym, g, x0)
    if witness.found:
        assert evaluate_general(gsym, x0, witness.jet) == g.evaluate(x0)


@st.composite
def linear_cases(draw):
    """A linear symbol over m = 1..3 and r = 0..2 with Gaussian
    coefficients, some of which vanish at the point, declared up to one
    order above its top weight, with a point and a right-hand side."""
    m = draw(st.integers(1, 3))
    r = draw(st.integers(0, 2))
    x0 = tuple(draw(_values) for _ in range(m))
    vanishing = MultiPoly.variable(m, 1) - x0[0]
    terms = {}
    alphas = st.sampled_from(enumerate_multiindices(m, r))
    for alpha in draw(st.lists(alphas, max_size=4, unique=True)):
        xs = tuple(draw(st.integers(0, 2)) for _ in range(m))
        coeff = MultiPoly(m, {xs: draw(_coefficients)})
        terms[alpha] = coeff * vanishing if draw(st.booleans()) else coeff
    sym = LinearSymbol(m, r + draw(st.integers(0, 1)), terms)
    g = MultiPoly(m, {
        tuple(draw(st.integers(0, 2)) for _ in range(m)): draw(_coefficients)
        for _ in range(draw(st.integers(0, 2)))
    })
    return sym, x0, g


@settings(max_examples=300)
@given(linear_cases())
def test_linear_witness_matches_the_constructive_oracle(case):
    # a linear symbol is frozen like any other and gets the jet of the
    # constructive route it replaced; only the no-witness note is the freeze's
    sym, x0, g = case
    witness = pcp_check(sym, g, x0)
    assert witness.jet == pcp_oracle._linear_witness(sym, g, x0).jet
    if not witness.found:
        assert witness.note == (
            "freeze-and-solve: every single-coordinate freeze is constant "
            "and misses the target value"
        )


@settings(max_examples=200)
@given(general_cases(), st.data())
def test_evaluate_general_matches_eval_scalars_oracle(case, data):
    gsym, x0, _ = case
    size = jet_dimension(gsym.base_dim, gsym.order)
    entries = data.draw(st.lists(_coefficients | st.just(Scalar()),
                                 min_size=size, max_size=size))
    p = JetVector(gsym.base_dim, gsym.order, entries)
    values = [Scalar(c) for c in x0] + list(p.entries)
    assert evaluate_general(gsym, x0, p) == pcp_oracle.eval_scalars(gsym.body, values)
