import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import dense_oracle
import kernel_oracle
from jetforge import linalg
from jetforge.algebra import MultiPoly
from jetforge.linalg import _eliminate, mat_vec, rank, solve
from jetforge.scalar import ONE, Scalar, _from_gaussian
from jetforge.symbols import LinearSymbol, fiber_matrix, lewy_symbol, prolong


def S(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def test_mat_vec():
    matrix = [[S(1), S(2)], [S(0), S(3)]]
    assert mat_vec(matrix, [S(1), S(1)]) == [S(3), S(3)]


def test_rank_examples():
    assert rank([[S(1), S(2)], [S(2), S(4)]]) == 1
    assert rank([[S(1), S(0)], [S(0), S(1)]]) == 2
    assert rank([[S(0), S(0)]]) == 0


def test_solve_unique():
    matrix = [[S(2), S(0)], [S(0), S(4)]]
    x, pivots = solve(matrix, [S(6), S(8)])
    assert x == [S(3), S(2)]
    assert pivots == [0, 1]


def test_solve_underdetermined_pins_free_variables():
    # one equation, two unknowns: x2 is free and stays zero
    matrix = [[S(1), S(1)]]
    x, pivots = solve(matrix, [S(5)])
    assert x == [S(5), S(0)]
    assert pivots == [0]


def test_solve_skips_zero_column():
    matrix = [[S(0), S(1), S(0)], [S(0), S(0), S(1)]]
    x, pivots = solve(matrix, [S(1), S(2)])
    assert x == [S(0), S(1), S(2)]
    assert pivots == [1, 2]


def test_solve_inconsistent():
    matrix = [[S(1), S(1)], [S(1), S(1)]]
    x, pivots = solve(matrix, [S(0), S(1)])
    assert x is None
    assert pivots == [0]


def test_solve_complex_entries():
    matrix = [[Scalar(0, 1)]]
    x, _ = solve(matrix, [S(1)])
    assert x == [Scalar(0, -1)]


def test_solution_satisfies_system():
    rng = random.Random(23)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = [
            [S(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)
        ]
        rhs = mat_vec(matrix, [S(rng.randint(-3, 3)) for _ in range(cols)])
        x, _ = solve(matrix, rhs)
        assert x is not None  # rhs was constructed in the image
        assert mat_vec(matrix, x) == rhs


# -- differential oracle: the dense solver this module replaced ----------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
entries = st.one_of(
    st.just(Scalar()), st.just(Scalar()), st.builds(Scalar, rationals, rationals)
)


# parts over unrelated denominators, so a row's common denominator is
# larger than any one entry's
gaussian_entries = st.one_of(
    st.just(Scalar()),
    st.builds(
        Scalar,
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
        st.fractions(min_value=-40, max_value=40, max_denominator=35),
    ),
    st.builds(Scalar, st.just(0), st.fractions(min_value=-9, max_value=9)),
)


@st.composite
def systems(draw, entries=entries):
    """Sparse matrices with zero, duplicated and dependent rows, and a rhs
    drawn inside the image or at random (usually outside it)."""
    n_cols = draw(st.integers(0, 7))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    base = draw(st.lists(row, max_size=5))
    matrix = list(base)
    for _ in range(draw(st.integers(0, 3)) if base else 0):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero":
            matrix.append([Scalar()] * n_cols)
        elif kind == "duplicate":
            matrix.append(list(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            fa, fb = draw(entries), draw(entries)
            matrix.append([fa * u + fb * v for u, v in zip(a, b)])
    matrix = draw(st.permutations(matrix))
    if draw(st.booleans()):
        rhs = mat_vec(matrix, draw(row))
    else:
        rhs = draw(st.lists(entries, min_size=len(matrix), max_size=len(matrix)))
    return matrix, rhs


def assert_matches_oracle(matrix, rhs):
    matrix_before = [list(row) for row in matrix]
    rhs_before = list(rhs)
    assert rank(matrix) == dense_oracle.rank(matrix) == kernel_oracle.rank(matrix)
    expected = dense_oracle.solve(matrix, rhs)
    assert solve(matrix, rhs) == expected == kernel_oracle.solve(matrix, rhs)
    assert matrix == matrix_before
    assert rhs == rhs_before


@settings(max_examples=300)
@given(systems())
def test_sparse_matches_dense_oracle(system):
    assert_matches_oracle(*system)


def unit_pivot_rows(matrix, rhs):
    """The integer pivot rows divided by their leads, as Scalar rows, after
    checking that each lead is positive and each row primitive."""
    pivot_rows, n_cols, consistent = _eliminate(matrix, rhs)
    unit = {}
    for lead, (n, rest) in pivot_rows.items():
        assert n > 0
        assert math.gcd(n, *[x for _, pair in rest for x in pair]) == 1
        values = _from_gaussian(n, [pair for _, pair in rest])
        unit[lead] = {lead: ONE, **dict(zip([j for j, _ in rest], values))}
    return unit, n_cols, consistent


@settings(max_examples=150)
@given(systems(gaussian_entries))
def test_integer_elimination_matches_scalar_oracle(system):
    matrix, rhs = system
    assert solve(matrix, rhs) == kernel_oracle.solve(matrix, rhs)
    assert rank(matrix) == kernel_oracle.rank(matrix)
    # each pivot row is the oracle's unit pivot row times its positive lead
    assert unit_pivot_rows(matrix, rhs) == kernel_oracle._eliminate(matrix, rhs)


def test_integer_elimination_edge_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        ([], []),  # the empty matrix
        ([[S(0), S(0)], [S(0), S(0)]], [S(0), S(0)]),  # zero rows
        ([[S(0), S(0)]], [S(1)]),  # a zero row with a nonzero rhs
        ([[S(half, third), S(1)], [S(1, Fraction(2, 3)), S(2, -2)]], [S(0, 1), S(third)]),
        ([[S(1, 1), S(2)], [S(2, 2), S(4)]], [S(1), S(3)]),  # rank 1, inconsistent
        ([[S(1, 1), S(2)], [S(2, 2), S(4)]], [S(1), S(2)]),  # rank 1, consistent
        ([[S(0, 3), S(0, 6)], [S(5), S(0)]], [S(0, 9), S(0)]),  # purely imaginary lead
    ]
    for matrix, rhs in cases:
        assert_matches_oracle(matrix, rhs)
        assert unit_pivot_rows(matrix, rhs) == kernel_oracle._eliminate(matrix, rhs)


def _dense_complex_matrix():
    rng = random.Random(3)
    return [[Scalar(rng.randint(-9, 9), rng.randint(-3, 3)) for _ in range(30)]
            for _ in range(30)]


# The content steps leave every result the same; without them the integers
# grow.  The largest part that reaches _primitive, measured:
#   Lewy, s = 6: 79 bits; 318 without the reduced-row step;
#   dense 30 x 30: 496 bits; 714 without the pivot-row step and 3,599
#   without the reduced-row step.
# The bounds leave 20-27% headroom.  A part over the bound fails at once, so
# a mutant whose integers explode fails fast instead of running on.
@pytest.mark.parametrize(
    "matrix, bound",
    [
        (lambda: fiber_matrix(prolong(lewy_symbol(), 6), ("1/5", "-2/3", "-3/5")), 100),
        (_dense_complex_matrix, 600),
    ],
    ids=["lewy-s6", "dense-30"],
)
def test_content_steps_bound_the_parts_entering_primitive(monkeypatch, matrix, bound):
    primitive = linalg._primitive

    def bounded(row):
        bits = max((abs(x).bit_length() for pair in row.values() for x in pair), default=0)
        assert bits <= bound, f"a {bits}-bit part reached _primitive"
        return primitive(row)

    matrix = matrix()
    monkeypatch.setattr(linalg, "_primitive", bounded)
    assert rank(matrix) == min(len(matrix), len(matrix[0]))


def test_empty_matrix_matches_oracle():
    assert_matches_oracle([], [])
    assert solve([], []) == ([], [])
    assert rank([]) == 0


@given(systems(), st.integers(1, 3), st.booleans())
def test_mismatched_rhs_length_raises(system, extra, longer):
    matrix, rhs = system
    bad = rhs + [Scalar(1)] * extra if longer else rhs[: max(0, len(rhs) - extra)]
    assume(len(bad) != len(rhs))
    with pytest.raises(ValueError):
        solve(matrix, bad)
    if matrix:  # the dense solver let a rhs for a 0-row matrix through
        with pytest.raises(ValueError):
            dense_oracle.solve(matrix, bad)


def _seeded_points(rng, m, count):
    return [
        tuple(Fraction(rng.randint(-5, 5), rng.choice([2, 3, 5, 7])) for _ in range(m))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "sym, points",
    [
        (lewy_symbol(), _seeded_points(random.Random(31), 3, 2)),
        (
            LinearSymbol(1, 1, {(1,): MultiPoly.monomial(1, (2,))}),
            [(Fraction(0),)] + _seeded_points(random.Random(37), 1, 3),
        ),
    ],
    ids=["lewy", "x2_ddx"],
)
def test_fiber_matrices_match_oracle(sym, points):
    rng = random.Random(41)
    for x0 in points:
        for level in range(6):
            matrix = fiber_matrix(prolong(sym, level), x0)
            if level % 2:  # a rhs in the image
                x = [Scalar(rng.randint(-3, 3)) for _ in range(len(matrix[0]))]
                rhs = mat_vec(matrix, x)
            else:  # a random rhs: outside the image where the map is not onto
                rhs = [Scalar(rng.randint(-3, 3)) for _ in range(len(matrix))]
            assert_matches_oracle(matrix, rhs)


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def entry(rng):
        if rng.random() < 0.5:
            return S(0)
        re = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        return S(re, rng.choice([0, 0, 1, -2]))

    def to_sympy(v):
        return sympy.nsimplify(v.re) + sympy.I * sympy.nsimplify(v.im)

    rng = random.Random(53)
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[entry(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.5:  # force a dependent row
            a, b = rng.choice(matrix), rng.choice(matrix)
            matrix.append([u + S(0, 1) * v for u, v in zip(a, b)])
        expected = sympy.Matrix([[to_sympy(v) for v in row] for row in matrix])
        assert rank(matrix) == expected.rank()
