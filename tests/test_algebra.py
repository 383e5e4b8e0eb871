import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import gluing_oracle
import kernel_oracle
from gluing_oracle import truncate
from jetforge import solver
from jetforge.algebra import (
    MultiPoly,
    _recentred,
    _separating_form,
    derivative,
    distinct_points,
    format_poly,
    hermite_interpolate,
    jet_quotient,
    local_inverse_truncated,
    shift,
    taylor_jet,
    taylor_polynomial,
)
from jetforge.errors import DimensionMismatch, DuplicatePoints, NotAUnit
from jetforge.jets import JetVector, enumerate_multiindices, jet_dimension
from jetforge.scalar import Scalar
from jetforge.symbols import (
    GeneralSymbol,
    LinearSymbol,
    evaluate_general,
    fiber_matrix,
    prolong,
)
from jetforge.vanishing import desingularization_order, vanishing_order


def poly(num_vars, terms):
    return MultiPoly(num_vars, terms)


def frac_point(*values):
    return tuple(Fraction(v) for v in values)


# -- strategies -------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
scalars = st.builds(Scalar, rationals, rationals)


def polys(m, max_deg=3, max_terms=4):
    alphas = st.sampled_from(enumerate_multiindices(m, max_deg))
    return st.dictionaries(alphas, scalars, max_size=max_terms).map(
        lambda d: MultiPoly(m, d)
    )


# -- arithmetic -------------------------------------------------------------

def test_zero_pruning():
    p = poly(2, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    assert not MultiPoly.zero(2)


def test_a_polynomial_never_equals_a_number():
    # equal values must hash equal, and a number's hash cannot see num_vars
    two = MultiPoly.constant(1, 2)
    assert two != 2 and two != Scalar(2)
    assert 2 not in {two: 1}


def test_ring_identities():
    x = MultiPoly.variable(2, 1)
    y = MultiPoly.variable(2, 2)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1


@given(polys(2, max_terms=6), polys(2, max_terms=6))
@example(poly(2, {(1, 0): 1, (0, 1): 1}), poly(2, {(1, 0): 1, (0, 1): -1}))
@example(poly(2, {}), poly(2, {(1, 1): 3}))
@example(poly(2, {(0, 0): Scalar(0, Fraction(2, 3))}), poly(2, {(0, 0): Fraction(3, 4)}))
# x^2 cancels and comes back after x^3 and x^4 are in: it must come last
@example(poly(1, {(0,): 1, (1,): 1, (2,): 1}), poly(1, {(0,): 1, (1,): 1, (2,): -1, (3,): -1}))
def test_product_matches_scalar_oracle(p, q):
    # equal terms in equal order, so any reader of the first term agrees
    assert list((p * q).terms.items()) == list(kernel_oracle.multiply(p, q).terms.items())


def test_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        MultiPoly.variable(2, 1) + MultiPoly.variable(3, 1)


# -- derivative: power rule examples ---------------------------------------

def test_derivative_power_rule():
    p = poly(2, {(2, 1): 1})  # x1^2 x2
    assert derivative(p, (1, 0)) == poly(2, {(1, 1): 2})  # 2 x1 x2
    assert derivative(p, (2, 0)) == poly(2, {(0, 1): 2})  # 2 x2


def test_derivative_of_constant():
    p = MultiPoly.constant(3, 5)
    assert derivative(p, (1, 1, 1)) == MultiPoly.zero(3)


def test_derivative_dimension_check():
    with pytest.raises(DimensionMismatch):
        derivative(MultiPoly.variable(2, 1), (1,))


@given(polys(2), st.sampled_from(enumerate_multiindices(2, 2)),
       st.sampled_from(enumerate_multiindices(2, 2)))
def test_derivative_commutes(p, alpha, beta):
    both = tuple(a + b for a, b in zip(alpha, beta))
    assert derivative(derivative(p, alpha), beta) == derivative(p, both)


@given(polys(2), polys(2))
def test_leibniz_rule(p, q):
    for i, e in ((1, (1, 0)), (2, (0, 1))):
        lhs = derivative(p * q, e)
        rhs = derivative(p, e) * q + p * derivative(q, e)
        assert lhs == rhs


# -- evaluation -------------------------------------------------------------

def test_evaluate_substitution():
    p = poly(2, {(2, 0): 1, (0, 1): 1})  # x1^2 + x2
    assert p.evaluate(frac_point(2, 3)) == 7


def test_evaluate_zero_polynomial():
    assert MultiPoly.zero(2).evaluate(frac_point(9, -1)) == 0


def test_evaluate_imaginary_coefficient():
    p = poly(1, {(1,): Scalar(0, 1)})  # i*x1
    assert p.evaluate(frac_point(1)) == Scalar(0, 1)


def test_evaluate_dimension_check():
    with pytest.raises(DimensionMismatch):
        MultiPoly.variable(2, 1).evaluate(frac_point(1))


# -- taylor jets ------------------------------------------------------------

def test_taylor_jet_square():
    # independent oracle: entry alpha = derivative(p, alpha).evaluate(x0)
    p = poly(1, {(2,): 1})
    x0 = frac_point(1)
    oracle = [
        derivative(p, alpha).evaluate(x0)
        for alpha in enumerate_multiindices(1, 2)
    ]
    assert oracle == [Scalar(1), Scalar(2), Scalar(2)]
    assert list(taylor_jet(p, x0, 2).entries) == oracle


def test_taylor_jet_zero_polynomial():
    jet = taylor_jet(MultiPoly.zero(2), frac_point(1, 2), 3)
    assert jet.is_zero


def test_taylor_jet_mixed_product_at_origin():
    p = poly(2, {(1, 1): 1})  # x1*x2: every first-order derivative is 0 at 0
    assert taylor_jet(p, frac_point(0, 0), 1).is_zero


@given(polys(2, max_deg=3), st.tuples(rationals, rationals))
@settings(max_examples=60)
def test_taylor_jet_matches_derivative_oracle(p, x0):
    jet = taylor_jet(p, x0, 3)
    for alpha in enumerate_multiindices(2, 3):
        assert jet[alpha] == derivative(p, alpha).evaluate(x0)


@given(polys(2, max_deg=3), st.tuples(rationals, rationals))
@settings(max_examples=60)
def test_taylor_reconstruction(p, x0):
    # a degree <= k polynomial is recovered from its order-k jet
    jet = taylor_jet(p, x0, 3)
    assert taylor_polynomial(jet, x0) == p


def test_project_commutes_with_taylor_jet():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 3)
        alphas = enumerate_multiindices(m, 3)
        p = MultiPoly(
            m, {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )
        x0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        assert taylor_jet(p, x0, 3).project(1) == taylor_jet(p, x0, 1)


# -- shift / truncate -------------------------------------------------------

def test_shift_recentres():
    p = poly(1, {(2,): 1})
    q = shift(p, frac_point(1))  # (u+1)^2 = u^2 + 2u + 1
    assert q == poly(1, {(0,): 1, (1,): 2, (2,): 1})


# m 1-3, degree <= 6 (so k up to 4 is often above the degree), complex
# coefficients, the origin as one point strategy; the zero polynomial and
# the origin are also pinned as examples
recentring_cases = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        polys(m, max_deg=6),
        st.just((Fraction(0),) * m) | st.tuples(*[rationals] * m),
        st.integers(0, 4),
    )
)


@given(recentring_cases)
@example((MultiPoly.zero(2), frac_point(1, -2), 3))
@example((poly(3, {(2, 0, 1): Scalar(1, -1)}), frac_point(0, 0, 0), 4))
@settings(max_examples=80)
def test_taylor_jet_matches_tree_walk_oracle(case):
    p, x0, k = case
    assert taylor_jet(p, x0, k) == gluing_oracle.taylor_jet(p, x0, k)


@given(recentring_cases)
@example((MultiPoly.zero(1), frac_point(3), 0))
@example((poly(2, {(1, 2): Scalar(0, 1), (0, 0): 2}), frac_point(0, 0), 0))
@settings(max_examples=80)
def test_shift_matches_full_expansion_oracle(case):
    p, x0, _ = case
    assert shift(p, x0) == gluing_oracle.shift(p, x0)


@given(recentring_cases)
@settings(max_examples=60)
def test_shift_round_trip(case):
    p, x0, _ = case
    assert shift(shift(p, x0), tuple(-c for c in x0)) == p


@given(recentring_cases)
@example((MultiPoly.zero(2), frac_point(Fraction(1, 3), -2), 0))
@example((poly(2, {(3, 1): Scalar(Fraction(1, 2), Fraction(-2, 3)), (0, 2): 5}),
          frac_point(0, Fraction(-3, 2)), 0))
@example((poly(2, {(3, 1): 1, (1, 0): Scalar(0, 1)}), frac_point(-1, Fraction(2, 5)), 9))
@settings(max_examples=150)
def test_recentred_matches_scalar_oracle(case):
    p, x0, k = case
    # equal terms in equal order
    got = list(_recentred(p, x0, k).items())
    assert got == list(kernel_oracle._recentred(p, x0, k).items())


def test_truncate_drops_high_degree():
    p = poly(1, {(0,): 1, (3,): 5})
    assert truncate(p, 2) == poly(1, {(0,): 1})


# -- truncated local inverse ------------------------------------------------

def test_local_inverse_geometric_series():
    p = poly(1, {(0,): 1, (1,): 1})  # 1 + x
    q = local_inverse_truncated(p, frac_point(0), 2)
    assert q == poly(1, {(0,): 1, (1,): -1, (2,): 1})  # 1 - x + x^2
    # multiply-back oracle
    assert taylor_jet(p * q - 1, frac_point(0), 2).is_zero


def test_local_inverse_of_one():
    one = MultiPoly.constant(2, 1)
    assert local_inverse_truncated(one, frac_point(0, 0), 3) == one


def test_local_inverse_requires_unit():
    with pytest.raises(NotAUnit):
        local_inverse_truncated(MultiPoly.variable(1, 1), frac_point(0), 2)


def test_local_inverse_random_multiply_back():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(1, 2)
        alphas = enumerate_multiindices(m, 2)
        p = MultiPoly(
            m,
            {rng.choice(alphas): Fraction(rng.randint(-3, 3)) for _ in range(3)},
        )
        x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(m))
        if not p.evaluate(x0):
            p = p + 1
        k = rng.randint(0, 3)
        q = local_inverse_truncated(p, x0, k)
        assert q.degree <= k
        assert taylor_jet(p * q - 1, x0, k).is_zero


@given(st.integers(1, 3).flatmap(
    lambda m: st.tuples(polys(m), st.tuples(*[rationals] * m), st.integers(0, 3))
))
@settings(max_examples=60)
def test_local_inverse_matches_geometric_series_oracle(case):
    p, x0, k = case
    if not p.evaluate(x0):
        p = p + 1
    assert local_inverse_truncated(p, x0, k) == gluing_oracle.local_inverse_truncated(
        p, x0, k
    )


# -- jet quotient -------------------------------------------------------------

def test_jet_quotient_requires_unit_denominator():
    num = JetVector(2, 1, [1, 2, 3])
    with pytest.raises(NotAUnit):
        jet_quotient(num, JetVector(2, 1, [0, 1, 1]))


def test_jet_quotient_requires_equal_specs():
    with pytest.raises(DimensionMismatch):
        jet_quotient(JetVector(2, 1, [1, 2, 3]), JetVector(2, 2, [1] * 6))
    with pytest.raises(DimensionMismatch):
        jet_quotient(JetVector(1, 2, [1, 2, 3]), JetVector(2, 1, [1, 2, 3]))


def test_jet_quotient_multiplies_back():
    rng = random.Random(17)

    def value():
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Scalar(re, rng.randint(-2, 2))

    for _ in range(40):
        m, k = rng.randint(1, 3), rng.randint(0, 3)
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
        size = jet_dimension(m, k)
        num = JetVector(m, k, [value() for _ in range(size)])
        unit = value() or Scalar(1)
        den = JetVector(m, k, [unit] + [value() for _ in range(size - 1)])
        q = jet_quotient(num, den)
        product = taylor_polynomial(q, x0) * taylor_polynomial(den, x0)
        assert taylor_jet(product, x0, k) == num


# -- jet interpolation ------------------------------------------------------

def test_single_point_is_taylor_polynomial():
    jet = JetVector(1, 1, [3, 5])
    assert hermite_interpolate([frac_point(0)], [jet]) == poly(
        1, {(0,): 3, (1,): 5}
    )


def test_two_point_order_zero():
    jets = [JetVector(1, 0, [0]), JetVector(1, 0, [1])]
    f = hermite_interpolate([frac_point(0), frac_point(1)], jets)
    assert f.evaluate(frac_point(0)) == 0
    assert f.evaluate(frac_point(1)) == 1


def test_duplicate_points_rejected():
    jets = [JetVector(1, 0, [0]), JetVector(1, 0, [1])]
    with pytest.raises(DuplicatePoints):
        hermite_interpolate([frac_point(0), frac_point(0)], jets)


def test_jets_of_mixed_orders_rejected():
    # the order is read from the jets, so they must agree on it
    jets = [JetVector(1, 1, [1, 1]), JetVector(1, 0, [1])]
    with pytest.raises(DimensionMismatch):
        hermite_interpolate([frac_point(0), frac_point(1)], jets)


def test_interpolation_random_exactness():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 2)
        k = rng.randint(0, 2)
        pts = []
        while len(pts) < rng.randint(1, 3):
            p = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
            if p not in pts:
                pts.append(p)
        jets = [
            JetVector(
                m, k, [Fraction(rng.randint(-4, 4)) for _ in range(jet_dimension(m, k))]
            )
            for _ in pts
        ]
        f = hermite_interpolate(pts, jets)
        for p, jet in zip(pts, jets):
            assert taylor_jet(f, p, k) == jet


# every base dimension, jet order and point count is drawn
GLUE_SHAPES = [(m, k, n) for m in range(1, 4) for k in range(4) for n in range(1, 5)]
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def gluing_problems(draw):
    m, k, n = draw(st.sampled_from(GLUE_SHAPES))
    points = draw(
        st.lists(st.tuples(*[small_rationals] * m), min_size=n, max_size=n, unique=True)
    )
    size = jet_dimension(m, k)
    jets = [
        JetVector(m, k, draw(st.lists(scalars, min_size=size, max_size=size)))
        for _ in points
    ]
    return points, jets, k


@given(gluing_problems())
@settings(max_examples=40)
def test_interpolation_matches_polynomial_inverse_oracle(problem):
    points, jets, k = problem
    assert hermite_interpolate(points, jets) == gluing_oracle.hermite_interpolate(
        points, jets, k
    )


@given(gluing_problems())
@settings(max_examples=20)
def test_interpolation_degree_is_bounded(problem):
    # each bump has degree (k+1)(n-1), its factor degree <= k
    points, jets, k = problem
    f = hermite_interpolate(points, jets)
    assert f.degree <= (k + 1) * (len(points) - 1) + k
    for p, jet in zip(points, jets):
        assert taylor_jet(f, p, k) == jet


@pytest.mark.parametrize(
    "points, weights",
    [
        ([(5,)], [1]),
        ([(0, 0, 0)], [1, 0, 0]),
        ([(2,), (-1,), (0,)], [1]),
        ([(0, 1), (1, 0)], [1, 0]),
        # t = 0 (x1) and t = 1 (x1 + x2) both take one value twice
        ([(0, 1), (1, 0), (0, 0)], [1, 2]),
    ],
)
def test_separating_form_takes_the_least_t_and_glues(points, weights):
    points = [frac_point(*p) for p in points]
    assert _separating_form(points) == weights
    m = len(weights)
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    assert gluing_oracle.separating_form(points) == poly(m, dict(zip(units, weights)))
    rng = random.Random(23)
    for k in range(3):
        jets = [
            JetVector(m, k, [Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                             for _ in range(jet_dimension(m, k))])
            for _ in points
        ]
        f = hermite_interpolate(points, jets)
        assert f == gluing_oracle.hermite_interpolate(points, jets, k)
        assert f.degree <= (k + 1) * (len(points) - 1) + k
        for p, jet in zip(points, jets):
            assert taylor_jet(f, p, k) == jet


# -- printing ---------------------------------------------------------------

def test_format_examples():
    assert format_poly(MultiPoly.zero(2)) == "0"
    p = poly(2, {(2, 1): Fraction(3, 2)})
    assert format_poly(p) == "3/2*x1^2*x2"
    q = poly(3, {(0, 0, 1): Scalar(0, 1)})
    assert format_poly(q) == "i*x3"
    assert format_poly(MultiPoly.constant(1, -1)) == "-1"


# -- one point check ----------------------------------------------------------

_P2 = MultiPoly(2, {(1, 0): 1, (0, 2): Scalar(0, 1)})
_SYM2 = LinearSymbol(2, 1, {(1, 0): _P2, (0, 1): MultiPoly.constant(2, 1)})


@pytest.mark.parametrize(
    "call",
    [
        lambda x0: _P2.evaluate(x0),
        lambda x0: taylor_jet(_P2, x0, 1),
        lambda x0: shift(_P2, x0),
        lambda x0: taylor_polynomial(JetVector.zeros(2, 1), x0),
        lambda x0: fiber_matrix(prolong(_SYM2, 1), x0),
        lambda x0: evaluate_general(
            GeneralSymbol.from_linear(_SYM2), x0, JetVector.zeros(2, 1)
        ),
        lambda x0: vanishing_order(_SYM2, x0),
        lambda x0: desingularization_order(_SYM2, x0, 2),
        lambda x0: solver.pcp_check(_SYM2, _P2, x0),
        lambda x0: solver.pcp_check(GeneralSymbol.from_linear(_SYM2), _P2, x0),
        lambda x0: solver.solve(_SYM2, _P2, [x0], 1),
    ],
    ids=[
        "evaluate", "taylor_jet", "shift", "taylor_polynomial", "fiber_matrix",
        "evaluate_general", "vanishing_order", "desingularization_order",
        "pcp_check_linear", "pcp_check_general", "solve",
    ],
)
def test_point_of_wrong_length_has_one_message(call):
    with pytest.raises(DimensionMismatch) as info:
        call((Fraction(1),))
    assert str(info.value) == "point of length 1 for dimension 2"


# -- one multiindex check and one jet-shape check ---------------------------

@pytest.mark.parametrize(
    "call, alpha, m",
    [
        (lambda: MultiPoly(2, {(1, 0, 0): 1}), (1, 0, 0), 2),
        (lambda: MultiPoly(2, {(1, -1): 1}), (1, -1), 2),
        (lambda: MultiPoly(2, {(0, -1): 0}), (0, -1), 2),
        (lambda: MultiPoly.monomial(2, [2, 0, 1]), (2, 0, 1), 2),
        (lambda: LinearSymbol(1, 1, {(-1,): 1}), (-1,), 1),
        (lambda: derivative(_P2, (-1, 0)), (-1, 0), 2),
        (lambda: derivative(_P2, (1,)), (1,), 2),
        (lambda: JetVector.from_mapping(2, 1, {(1,): 7}), (1,), 2),
        (lambda: JetVector.from_mapping(1, 2, {(0,): 1, (-1,): 7}), (-1,), 1),
    ],
    ids=[
        "poly-length", "poly-negative", "poly-negative-zero-coefficient",
        "monomial-length", "linear-symbol-negative", "derivative-negative",
        "derivative-length", "from-mapping-length", "from-mapping-negative",
    ],
)
def test_malformed_multiindex_has_one_message(call, alpha, m):
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == f"multiindex {alpha} invalid for dimension {m}"


@pytest.mark.parametrize(
    "call",
    [
        lambda jet: JetVector.zeros(2, 1) + jet,
        lambda jet: JetVector.zeros(2, 1) - jet,
        lambda jet: jet_quotient(JetVector.zeros(2, 1), jet),
        lambda jet: evaluate_general(GeneralSymbol.from_linear(_SYM2), (0, 0), jet),
        lambda jet: hermite_interpolate(
            [(0, 0), (1, 0)], [JetVector.zeros(2, 1), jet]
        ),
    ],
    ids=["add", "sub", "jet_quotient", "evaluate_general", "hermite_interpolate"],
)
def test_jet_of_wrong_shape_has_one_message(call):
    # three entries like a (2, 1) jet, but the shape of a 2-jet on a line
    with pytest.raises(DimensionMismatch) as info:
        call(JetVector(1, 2, [1, 2, 3]))
    assert str(info.value) == "jet of shape (1, 2), expected (2, 1)"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: distinct_points([]), ValueError, "need at least one point"),
        (lambda: MultiPoly(0), ValueError, "polynomials need at least one variable"),
        (lambda: MultiPoly(2, {(1,): 1}), DimensionMismatch,
         "multiindex (1,) invalid for dimension 2"),
        (lambda: MultiPoly(1, {(-1,): 1}), DimensionMismatch,
         "multiindex (-1,) invalid for dimension 1"),
        (lambda: MultiPoly.variable(2, 3), DimensionMismatch,
         "variable index 3 outside 1..2"),
        (lambda: _P2.partial(3), DimensionMismatch, "variable index 3 outside 1..2"),
        (lambda: _P2 ** -1, ValueError,
         "polynomial powers take nonnegative integer exponents"),
        (lambda: hermite_interpolate([(0,), (1,)], [JetVector.zeros(1, 0)]),
         DimensionMismatch, "one jet per point required"),
        (lambda: hermite_interpolate([(0,), (0, 1)], [JetVector.zeros(1, 0)] * 2),
         DimensionMismatch, "interpolation points have mixed dimensions"),
        (lambda: taylor_jet(_P2, (0, 0), -1), ValueError,
         "jet order must be >= 0, got -1"),
    ],
    ids=[
        "no-points", "no-variables", "exponent-length", "negative-exponent",
        "variable-index", "partial-index", "negative-power", "jet-count",
        "mixed-point-lengths", "negative-jet-order",
    ],
)
def test_invalid_arguments_raise_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_evaluate_takes_scalar_coordinates():
    p = MultiPoly(2, {(2, 0): 3, (1, 1): Scalar(0, 1), (0, 0): 1})
    i = Scalar(0, 1)
    # 3*i^2 + i*i*(1/2) + 1 = -3 - 1/2 + 1
    assert p.evaluate((i, Fraction(1, 2))) == Fraction(-5, 2)
    assert p.evaluate((1, "1/2")) == p.evaluate((Scalar(1), Scalar(Fraction(1, 2))))
