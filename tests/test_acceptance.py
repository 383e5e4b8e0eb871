"""Acceptance criteria, one test per numbered criterion.

Every check is an exact equality over the Gaussian rationals (zero
tolerance).  Each test prints a PASS/FAIL line with its case count and
runtime; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
import time
from types import SimpleNamespace

import pytest

from jetforge import checks
from jetforge.algebra import MultiPoly
from jetforge.errors import UnsolvableError


def _criterion(number, title, suite, cases=None):
    rng = random.Random(f"acceptance:{number}")
    start = time.time()
    result = suite(rng) if cases is None else suite(rng, cases)
    elapsed = time.time() - start
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"[acceptance {number}] {verdict} {title}: "
        f"{result.cases - len(result.failures)}/{result.cases} exact "
        f"({elapsed:.1f}s)"
    )
    assert result.passed, result.failures[:3]


def test_criterion_1_prolongation_identity():
    # 200 random instances, m <= 3, r <= 2, coefficient degree <= 2,
    # f degree <= 4, s <= 2: matrix route equals direct differentiation.
    _criterion(1, "prolongation identity", checks.prolongation_identity_suite, 200)


def test_criterion_2_total_derivative_commutation():
    # 100 random symbols, all direction pairs, compared as symbols.
    _criterion(2, "total-derivative commutation", checks.commutation_suite, 100)


def test_criterion_3_desingularization_law():
    # 200 engineered symbols with verified vanishing order exactly c <= 3:
    # the first nonzero prolonged fiber map appears at level c+1.
    _criterion(3, "desingularization law", checks.desingularization_suite, 200)


def test_criterion_4_surjectivity():
    # 100 random symbols with nonzero principal part: full rank for all
    # k <= 3; includes the Lewy operator at (0,0,0) and (1,1,1).
    _criterion(4, "prolonged surjectivity", checks.surjectivity_suite, 100)


def test_criterion_5_solver_soundness():
    # 200 random solvable instances plus Lewy with g = x1 at order 2:
    # the jet of P(f) - g vanishes exactly.
    _criterion(5, "solver soundness", checks.solver_soundness_suite, 200)


def test_criterion_6_singular_operator_solving():
    # x1^2-scaled Lewy terms: 2-flat right-hand sides solve for s <= 2,
    # g = 1 is unsolvable.
    _criterion(6, "singular operator solving", checks.singular_solving_suite)


def test_criterion_7_multi_point_gluing():
    # 50 random instances with 2-3 distinct rational points: the glued
    # polynomial passes the per-point jet check at every point.
    _criterion(7, "multi-point gluing", checks.gluing_suite, 50)


def test_criterion_8_pcp_witnesses():
    # 100 random nonvanishing linear symbols: constructed witnesses land
    # on g(x0) exactly; y[1]^2 behaves on g = 4 and g = -1.
    _criterion(8, "pointwise covering witnesses", checks.pcp_suite, 100)


def test_criterion_9_hermite_interpolation():
    # 100 random instances, m <= 3, order <= 2, up to 3 points: exact jet
    # match everywhere.
    _criterion(9, "jet interpolation", checks.hermite_suite, 100)


@pytest.mark.parametrize(
    "suite, cases",
    [
        (checks.solver_soundness_suite, 5),
        (checks.singular_solving_suite, None),
        (checks.gluing_suite, 5),
    ],
    ids=["solver-soundness", "singular-solving", "gluing"],
)
def test_solving_suites_report_a_wrong_solution(monkeypatch, suite, cases):
    # f = x1 misses Lewy's g = x1 (P(x1) = 1), the singular operator's flat
    # right-hand sides at s = 2 (P(x1) = x1^2), and some gluing draw
    def wrong(sym, g, points, s):
        return SimpleNamespace(polynomial=MultiPoly.variable(sym.base_dim, 1))

    monkeypatch.setattr(checks, "solve", wrong)
    rng = random.Random(0)
    result = suite(rng) if cases is None else suite(rng, cases)
    assert [f for f in result.failures if "g=1 unexpectedly solvable" not in f]


def test_an_unsolvable_instance_is_a_soundness_failure(monkeypatch):
    def unsolvable(sym, g, points, s):
        raise UnsolvableError("no solution")

    monkeypatch.setattr(checks, "solve", unsolvable)
    result = checks.solver_soundness_suite(random.Random(0), 1)
    assert result.failures
    assert all(f.startswith("unsolvable: ") for f in result.failures)
