import random
from fractions import Fraction

import pytest

from jetforge import linalg
from jetforge.algebra import MultiPoly, taylor_jet
from jetforge.errors import BadDirection, DimensionMismatch
from jetforge.jets import JetVector, enumerate_multiindices
from jetforge.parser import parse_operator
from jetforge.scalar import Scalar
from jetforge.symbols import (
    GeneralSymbol,
    LinearSymbol,
    apply_operator,
    evaluate_general,
    fiber_matrix,
    lewy_symbol,
    principal_part,
    prolong,
    total_derivative,
    _total_derivative_cached,
)

ORIGIN3 = (Fraction(0),) * 3


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinearSymbol(0, 1), ValueError, "base dimension must be >= 1, got 0"),
        (lambda: LinearSymbol(1, -1), ValueError, "jet order must be >= 0, got -1"),
        (lambda: LinearSymbol(1, 1, {(1, 0): 1}), DimensionMismatch,
         "multiindex (1, 0) invalid for dimension 1"),
        (lambda: LinearSymbol(1, 1, {(1,): MultiPoly.constant(2, 1)}),
         DimensionMismatch, "coefficient in 2 variables on a 1-dimensional symbol"),
        (lambda: GeneralSymbol(1, 1, MultiPoly(2)), DimensionMismatch,
         "body has 2 variables, expected 3"),
        (lambda: GeneralSymbol(0, 1, MultiPoly(1)), ValueError,
         "base dimension must be >= 1, got 0"),
        (lambda: GeneralSymbol(1, -1, MultiPoly(1)), ValueError,
         "jet order must be >= 0, got -1"),
        (lambda: apply_operator(ddx(), MultiPoly(2)), DimensionMismatch,
         "operand in 2 variables under a 1-dimensional operator"),
    ],
    ids=[
        "linear-dimension", "linear-order", "term-index-length",
        "coefficient-variables", "body-width", "general-dimension",
        "general-order", "operand-dimension",
    ],
)
def test_invalid_arguments_raise_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.constant(1, 1)})


def x_squared_ddx():
    return LinearSymbol(1, 1, {(1,): MultiPoly.monomial(1, (2,))})


def rand_symbol(rng, m, r, coeff_deg=2):
    alphas = enumerate_multiindices(m, r)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        coeff_alphas = enumerate_multiindices(m, coeff_deg)
        coeff = MultiPoly(
            m,
            {rng.choice(coeff_alphas): Fraction(rng.randint(-3, 3)) for _ in range(2)},
        )
        if coeff:
            terms[rng.choice(alphas)] = coeff
    return LinearSymbol(m, r, terms) if terms else ddx_like(m, r)


def ddx_like(m, r):
    alpha = (r,) + (0,) * (m - 1)
    return LinearSymbol(m, r, {alpha: MultiPoly.constant(m, 1)})


def rand_poly(rng, m, deg):
    alphas = enumerate_multiindices(m, deg)
    return MultiPoly(
        m, {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(3)}
    )


def rand_point(rng, m):
    return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))


# -- construction -----------------------------------------------------------

def test_zero_coefficients_pruned():
    sym = LinearSymbol(1, 1, {(1,): MultiPoly.zero(1)})
    assert sym.is_zero


def test_number_coefficients_become_constant_polynomials():
    assert str(LinearSymbol(1, 1, {(1,): 3})) == "3*d[1]"


def test_term_weight_capped_by_order():
    with pytest.raises(DimensionMismatch):
        LinearSymbol(1, 1, {(2,): MultiPoly.constant(1, 1)})


def test_declared_order_may_exceed_term_weights():
    sym = LinearSymbol(1, 1, {(0,): MultiPoly.constant(1, 1)})
    assert sym.order == 1
    matrix = fiber_matrix(prolong(sym, 0), (Fraction(0),))
    assert len(matrix[0]) == 2  # columns for y_(0), y_(1)


# -- applying the operator --------------------------------------------------

def test_apply_first_derivative():
    assert apply_operator(ddx(), MultiPoly.monomial(1, (2,))) == MultiPoly(
        1, {(1,): 2}
    )


def test_apply_lewy_to_x3():
    # hand differentiation: -2i(x1 + i x2) * 1 = -2i*x1 + 2*x2
    out = apply_operator(lewy_symbol(), MultiPoly.variable(3, 3))
    assert out == MultiPoly(3, {(1, 0, 0): Scalar(0, -2), (0, 1, 0): Scalar(2)})


def test_apply_zero_symbol():
    zero = LinearSymbol(2, 1, {})
    assert apply_operator(zero, rand_poly(random.Random(0), 2, 3)).terms == {}


def test_apply_is_linear():
    rng = random.Random(1)
    for _ in range(15):
        m = rng.randint(1, 3)
        sym = rand_symbol(rng, m, rng.randint(0, 2))
        f, g = rand_poly(rng, m, 3), rand_poly(rng, m, 3)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert apply_operator(sym, a * f + b * g) == a * apply_operator(
            sym, f
        ) + b * apply_operator(sym, g)


# -- total derivatives ------------------------------------------------------

def test_total_derivative_constant_coefficient():
    assert total_derivative(ddx(), 1) == LinearSymbol(
        1, 2, {(2,): MultiPoly.constant(1, 1)}
    )


def test_total_derivative_product_rule_on_symbol():
    # d#(x^2 y_(1)) = 2x y_(1) + x^2 y_(2)
    out = total_derivative(x_squared_ddx(), 1)
    assert out == LinearSymbol(
        1,
        2,
        {(1,): MultiPoly(1, {(1,): 2}), (2,): MultiPoly.monomial(1, (2,))},
    )


def test_total_derivative_order_zero_term():
    # d#(f y_(0)) = f' y_(0) + f y_(1)
    f = MultiPoly(1, {(0,): 1, (3,): 2})
    sym = LinearSymbol(1, 0, {(0,): f})
    out = total_derivative(sym, 1)
    assert out == LinearSymbol(1, 1, {(0,): f.partial(1), (1,): f})


def test_total_derivative_stores_no_cancelled_term():
    # d#(y_(0) - x y_(1)) = y_(1) - y_(1) - x y_(2): the y_(1) parts cancel
    sym = parse_operator("d[0] - x1*d[1]")
    out = total_derivative(sym, 1)
    assert out == parse_operator("-x1*d[2]")
    assert list(out.terms) == [(2,)]


def test_total_derivative_direction_validated():
    with pytest.raises(BadDirection):
        total_derivative(ddx(), 2)


def test_total_derivatives_commute():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(2, 3)
        sym = rand_symbol(rng, m, rng.randint(0, 2))
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                assert total_derivative(
                    total_derivative(sym, i), j
                ) == total_derivative(total_derivative(sym, j), i)


# -- prolongation -----------------------------------------------------------

def test_prolong_level_zero():
    pro = prolong(ddx(), 0)
    assert pro.components[(0,)] == ddx()
    assert list(pro.components) == [(0,)]


def test_prolong_components_come_in_graded_lex_order():
    sym = parse_operator("x1*d[1,0,0] + x3^2*d[0,1,0] + d[0,0,0]")
    for s in range(4):
        assert list(prolong(sym, s).components) == enumerate_multiindices(3, s)


def test_prolong_level_one_constant_coefficient():
    pro = prolong(ddx(), 1)
    assert pro.components[(1,)] == LinearSymbol(
        1, 2, {(2,): MultiPoly.constant(1, 1)}
    )


def test_prolong_second_level_component():
    # apply the total derivative twice by hand:
    # d#(x^2 y1) = 2x y1 + x^2 y2; d# of that = 2 y1 + 4x y2 + x^2 y3
    pro = prolong(x_squared_ddx(), 2)
    expected = LinearSymbol(
        1,
        3,
        {
            (1,): MultiPoly.constant(1, 2),
            (2,): MultiPoly(1, {(1,): 4}),
            (3,): MultiPoly.monomial(1, (2,)),
        },
    )
    assert pro.components[(2,)] == expected


def test_second_prolong_is_served_from_the_derivative_cache():
    # an operator no other test builds, so the first prolong misses
    sym = LinearSymbol(
        3,
        1,
        {
            (1, 0, 0): MultiPoly.constant(3, 1),
            (0, 0, 1): MultiPoly(3, {(0, 1, 0): Fraction(5, 7), (0, 0, 1): 1}),
        },
    )
    prolong(sym, 8)
    before = _total_derivative_cached.cache_info()
    prolong(sym, 8)
    after = _total_derivative_cached.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(enumerate_multiindices(3, 8)) - 1


# -- fiber matrices ---------------------------------------------------------

def test_fiber_matrix_first_derivative():
    matrix = fiber_matrix(prolong(ddx(), 1), (Fraction(2),))
    assert matrix == [
        [Scalar(0), Scalar(1), Scalar(0)],
        [Scalar(0), Scalar(0), Scalar(1)],
    ]


def test_fiber_matrix_vanishing_coefficients():
    matrix = fiber_matrix(prolong(x_squared_ddx(), 1), (Fraction(0),))
    assert all(not entry for row in matrix for entry in row)
    assert len(matrix) == 2 and len(matrix[0]) == 3


def test_fiber_matrix_level_zero_single_row():
    matrix = fiber_matrix(prolong(lewy_symbol(), 0), ORIGIN3)
    assert len(matrix) == 1
    assert matrix[0][1] == 1  # coefficient of y_(1,0,0)


def test_fiber_matrix_dimension_check():
    with pytest.raises(DimensionMismatch):
        fiber_matrix(prolong(ddx(), 0), (Fraction(0), Fraction(0)))


def test_prolongation_evaluation_identity():
    # matrix times input jet equals the jet of the operator output
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        sym = rand_symbol(rng, m, r)
        f = rand_poly(rng, m, 4)
        x0 = rand_point(rng, m)
        lhs = linalg.mat_vec(
            fiber_matrix(prolong(sym, s), x0),
            list(taylor_jet(f, x0, r + s).entries),
        )
        rhs = taylor_jet(apply_operator(sym, f), x0, s)
        assert lhs == list(rhs.entries)


def test_output_jet_projection_commutes():
    # truncating the output jet = evaluating the lower prolongation
    rng = random.Random(4)
    for _ in range(20):
        m = rng.randint(1, 2)
        r = rng.randint(0, 2)
        s = rng.randint(1, 2)
        k = rng.randint(0, s - 1)
        sym = rand_symbol(rng, m, r)
        f = rand_poly(rng, m, 4)
        x0 = rand_point(rng, m)
        full = linalg.mat_vec(
            fiber_matrix(prolong(sym, s), x0),
            list(taylor_jet(f, x0, r + s).entries),
        )
        low = linalg.mat_vec(
            fiber_matrix(prolong(sym, k), x0),
            list(taylor_jet(f, x0, r + k).entries),
        )
        assert full[: len(low)] == low


def test_locality_equal_jets_give_equal_output_jets():
    rng = random.Random(5)
    for _ in range(15):
        m = rng.randint(1, 2)
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        sym = rand_symbol(rng, m, r)
        x0 = rand_point(rng, m)
        f = rand_poly(rng, m, 3)
        # perturb by something vanishing to order r+s at x0
        bump = MultiPoly.constant(m, 1)
        for i in range(1, m + 1):
            d = MultiPoly.variable(m, i) - MultiPoly.constant(m, x0[i - 1])
            bump = bump * d
        perturbation = bump ** (r + s + 1)
        g = f + perturbation
        assert taylor_jet(f, x0, r + s) == taylor_jet(g, x0, r + s)
        assert taylor_jet(apply_operator(sym, f), x0, s) == taylor_jet(
            apply_operator(sym, g), x0, s
        )


# -- principal part ---------------------------------------------------------

def test_lewy_principal_equals_total():
    lewy = lewy_symbol()
    assert principal_part(lewy) == lewy


def test_principal_part_picks_top_order():
    sym = LinearSymbol(
        1, 2, {(0,): MultiPoly.constant(1, 1), (2,): MultiPoly.constant(1, 1)}
    )
    assert principal_part(sym) == LinearSymbol(
        1, 2, {(2,): MultiPoly.constant(1, 1)}
    )


def test_principal_part_may_be_zero():
    sym = LinearSymbol(1, 1, {(0,): MultiPoly.constant(1, 1)})
    assert principal_part(sym).is_zero


# -- general symbols --------------------------------------------------------

def test_evaluate_general_square():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    jet = JetVector(1, 1, [0, 2])
    assert evaluate_general(square, (Fraction(0),), jet) == 4


def test_evaluate_general_zero_jet():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    assert evaluate_general(square, (Fraction(3),), JetVector.zeros(1, 1)) == 0


def test_equal_general_symbols_hash_equal():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    same = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): Scalar(1)}))
    assert square == same and hash(square) == hash(same)
    assert {square: "found"}.get(same) == "found"


def test_evaluate_general_spec_mismatch():
    square = GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))
    with pytest.raises(DimensionMismatch):
        evaluate_general(square, (Fraction(0),), JetVector.zeros(1, 2))


def test_linear_embedding_agrees_with_pairing():
    rng = random.Random(6)
    for _ in range(50):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        sym = rand_symbol(rng, m, r)
        gsym = GeneralSymbol.from_linear(sym)
        x0 = rand_point(rng, m)
        jet = JetVector(
            m,
            r,
            [
                Fraction(rng.randint(-3, 3))
                for _ in range(len(enumerate_multiindices(m, r)))
            ],
        )
        # independent pairing: sum of f_alpha(x0) * jet[alpha]
        direct = Scalar(0)
        for alpha, coeff in sym.terms.items():
            direct = direct + coeff.evaluate(x0) * jet[alpha]
        assert evaluate_general(gsym, x0, jet) == direct
