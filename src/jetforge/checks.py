"""Randomized property suites over exact arithmetic.

Every suite draws desk-scale random instances from a seeded generator and
checks an exact identity; a failure message pins the offending instance.
The CLI ``check`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (
    MultiPoly,
    hermite_interpolate,
    shift,
    taylor_jet,
)
from .errors import UnsolvableError
from .jets import JetVector, _indices, _weight_slice, jet_dimension
from .scalar import Scalar
from .solver import pcp_check, residual_vanishes, solve
from .symbols import (
    GeneralSymbol,
    LinearSymbol,
    apply_operator,
    evaluate_general,
    fiber_matrix,
    lewy_symbol,
    prolong,
    total_derivative,
)
from .vanishing import EXACTLY, desingularization_order, vanishing_order


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(describe())

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} {self.name}: {self.cases - len(self.failures)}/{self.cases} cases"
        if self.failures:
            line += f" (first failure: {self.failures[0]})"
        return line


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def rand_scalar(rng: random.Random) -> Scalar:
    re = rand_fraction(rng)
    im = rand_fraction(rng) if rng.random() < 0.4 else 0
    if re == 0 and im == 0:
        re = Fraction(rng.choice([1, -1, 2]))
    return Scalar(re, im)


def rand_point(rng: random.Random, m: int):
    return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))


def rand_poly(rng: random.Random, m: int, deg: int, max_terms: int = 3) -> MultiPoly:
    pool = _indices(m, deg)
    chosen = rng.sample(pool, min(rng.randint(1, max_terms), len(pool)))
    return MultiPoly(m, {a: rand_scalar(rng) for a in chosen})


def rand_symbol(rng: random.Random, m: int, r: int, coeff_deg: int) -> LinearSymbol:
    pool = _indices(m, r)
    chosen = rng.sample(pool, min(rng.randint(1, 2), len(pool)))
    return LinearSymbol(
        m, r, {a: rand_poly(rng, m, rng.randint(0, coeff_deg)) for a in chosen}
    )


def rand_symbol_nonzero_principal(
    rng: random.Random, m: int, r: int, coeff_deg: int, points
) -> LinearSymbol:
    """Random symbol whose top-order part survives at every given point."""
    sym = rand_symbol(rng, m, r, coeff_deg)
    top = tuple(rng.choice(_weight_slice(m, r)))
    coeff = sym.terms.get(top, MultiPoly.zero(m))
    values = {coeff.evaluate(p) for p in points}
    bump_c = 1
    while any(v + bump_c == 0 for v in values):
        bump_c += 1
    terms = dict(sym.terms)
    terms[top] = coeff + bump_c
    return LinearSymbol(m, r, terms)


def _rand_points(rng: random.Random, m: int, n: int) -> list:
    """n pairwise distinct random points in m variables."""
    points = []
    while len(points) < n:
        p = rand_point(rng, m)
        if p not in points:
            points.append(p)
    return points


def _rand_shape(rng: random.Random):
    m = rng.randint(1, 3)
    r = rng.randint(0, 2)
    return m, r


def _check_solved(result: SuiteResult, sym, g, points, s: int, describe) -> None:
    """Solve P(f) = g to order s at the points and record whether f passes
    the jet check; an unsolvable instance is a failure."""
    try:
        f = solve(sym, g, points, s).polynomial
    except UnsolvableError:
        result.check(False, lambda: f"unsolvable: {describe()}")
        return
    result.check(residual_vanishes(sym, g, f, points, s), describe)


def prolongation_identity_suite(rng: random.Random, cases: int = 200) -> SuiteResult:
    """Matrix-on-jet evaluation agrees with differentiating P(f) directly."""
    result = SuiteResult("prolongation identity")
    for _ in range(cases):
        m, r = _rand_shape(rng)
        s = rng.randint(0, 2)
        sym = rand_symbol(rng, m, r, coeff_deg=2)
        f = rand_poly(rng, m, rng.randint(0, 4), max_terms=4)
        x0 = rand_point(rng, m)
        matrix = fiber_matrix(prolong(sym, s), x0)
        via_matrix = linalg.mat_vec(matrix, list(taylor_jet(f, x0, r + s).entries))
        direct = taylor_jet(apply_operator(sym, f), x0, s)
        result.check(
            via_matrix == list(direct.entries),
            lambda: f"sym={sym}, f={f}, x0={x0}, s={s}",
        )
    return result


def commutation_suite(rng: random.Random, cases: int = 100) -> SuiteResult:
    """Iterated total derivatives are order-independent."""
    result = SuiteResult("total-derivative commutation")
    for _ in range(cases):
        m, r = _rand_shape(rng)
        sym = rand_symbol(rng, m, r, coeff_deg=2)
        ok = True
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                lhs = total_derivative(total_derivative(sym, i), j)
                rhs = total_derivative(total_derivative(sym, j), i)
                ok = ok and lhs == rhs
        result.check(ok, lambda: f"sym={sym}")
    return result


def desingularization_suite(rng: random.Random, cases: int = 200) -> SuiteResult:
    """Vanishing order exactly c forces first nonzero fiber map at level c+1."""
    result = SuiteResult("desingularization law")
    for _ in range(cases):
        m, r = _rand_shape(rng)
        c = rng.randint(0, 3)
        x0 = rand_point(rng, m)
        base = rand_symbol_nonzero_principal(rng, m, r, coeff_deg=1, points=[x0])
        form_slice = _weight_slice(m, c + 1)
        chosen = rng.sample(form_slice, min(rng.randint(1, 2), len(form_slice)))
        centred = MultiPoly(m, {a: rand_scalar(rng) for a in chosen})
        factor = shift(centred, tuple(-v for v in x0))
        sym = LinearSymbol(
            m, r, {a: factor * f for a, f in base.terms.items()}
        )
        report = vanishing_order(sym, x0)
        if report.kind != EXACTLY or report.order != c:
            result.check(
                False, lambda: f"engineered order drifted: {report} for sym={sym}"
            )
            continue
        level = desingularization_order(sym, x0, cap=c + 2)
        result.check(
            level == c + 1,
            lambda: f"sym={sym}, x0={x0}, c={c}, level={level}",
        )
    return result


def surjectivity_suite(rng: random.Random, cases: int = 100) -> SuiteResult:
    """Nonzero principal part gives full fiber rank at every level <= 3."""
    result = SuiteResult("prolonged surjectivity")
    lewy = lewy_symbol()
    for point in [(0, 0, 0), (1, 1, 1)]:
        x0 = tuple(Fraction(c) for c in point)
        for k in range(4):
            rank = linalg.rank(fiber_matrix(prolong(lewy, k), x0))
            expected = jet_dimension(3, k)
            result.check(
                rank == expected,
                lambda: f"lewy at {point}, k={k}: rank {rank} != {expected}",
            )
    for _ in range(cases):
        m, r = _rand_shape(rng)
        x0 = rand_point(rng, m)
        sym = rand_symbol_nonzero_principal(rng, m, r, coeff_deg=2, points=[x0])
        ok = True
        for k in range(4):
            if linalg.rank(fiber_matrix(prolong(sym, k), x0)) != jet_dimension(m, k):
                ok = False
                break
        result.check(ok, lambda: f"sym={sym}, x0={x0}, k={k}")
    return result


def solver_soundness_suite(rng: random.Random, cases: int = 200) -> SuiteResult:
    """Solutions reproduce the target jet of g through the operator exactly."""
    result = SuiteResult("solver soundness")
    _check_solved(result, lewy_symbol(), MultiPoly.variable(3, 1),
                  [(Fraction(0),) * 3], 2, lambda: "lewy with g=x1 at order 2")
    for _ in range(cases):
        m, r = _rand_shape(rng)
        s = rng.randint(0, 2)
        x0 = rand_point(rng, m)
        sym = rand_symbol_nonzero_principal(rng, m, r, coeff_deg=2, points=[x0])
        g = rand_poly(rng, m, rng.randint(0, 3))
        _check_solved(result, sym, g, [x0], s,
                      lambda: f"sym={sym}, g={g}, x0={x0}, s={s}")
    return result


def singular_solving_suite(rng: random.Random = None) -> SuiteResult:
    """The Lewy symbol scaled by x1^2: right-hand sides flat to order two
    at the origin stay solvable; g = 1 is provably not."""
    result = SuiteResult("singular operator solving")
    lewy = lewy_symbol()
    scale = MultiPoly.monomial(3, (2, 0, 0))
    singular = LinearSymbol(
        3, 1, {a: scale * c for a, c in lewy.terms.items()}
    )
    x0 = (Fraction(0),) * 3
    flat_rhs = [
        MultiPoly.monomial(3, (3, 0, 0)),
        MultiPoly.monomial(3, (2, 1, 0)),
        MultiPoly.monomial(3, (0, 3, 0)),
        MultiPoly.monomial(3, (1, 1, 1)),
    ]
    for g in flat_rhs:
        for s in range(3):
            _check_solved(result, singular, g, [x0], s, lambda: f"g={g}, s={s}")
    one = MultiPoly.constant(3, 1)
    try:
        solve(singular, one, [x0], 0)
        result.check(False, lambda: "g=1 unexpectedly solvable")
    except UnsolvableError:
        result.check(True, lambda: "")
    return result


def gluing_suite(rng: random.Random, cases: int = 50) -> SuiteResult:
    """Multi-point solutions keep the per-point jet guarantee."""
    result = SuiteResult("multi-point gluing")
    for _ in range(cases):
        m, r = _rand_shape(rng)
        s = rng.randint(0, 1)
        points = _rand_points(rng, m, rng.randint(2, 3))
        sym = rand_symbol_nonzero_principal(rng, m, r, coeff_deg=1, points=points)
        g = rand_poly(rng, m, rng.randint(0, 2))
        _check_solved(result, sym, g, points, s,
                      lambda: f"sym={sym}, g={g}, points={points}, s={s}")
    return result


def pcp_suite(rng: random.Random, cases: int = 100) -> SuiteResult:
    """Witness construction hits g(x0) exactly; the square example behaves."""
    result = SuiteResult("pointwise covering witnesses")
    square = GeneralSymbol(
        1, 1, MultiPoly(3, {(0, 0, 2): Scalar(1)})
    )
    four = MultiPoly.constant(1, 4)
    witness = pcp_check(square, four, (Fraction(0),))
    result.check(
        witness.found and witness.jet[(1,)] == 2,
        lambda: f"square symbol with g=4 gave {witness}",
    )
    minus_one = MultiPoly.constant(1, -1)
    missing = pcp_check(square, minus_one, (Fraction(0),))
    result.check(
        not missing.found and "0 real root" in missing.note,
        lambda: f"square symbol with g=-1 gave {missing}",
    )
    for _ in range(cases):
        m, r = _rand_shape(rng)
        x0 = rand_point(rng, m)
        sym = rand_symbol_nonzero_principal(rng, m, r, coeff_deg=2, points=[x0])
        g = rand_poly(rng, m, rng.randint(0, 2))
        witness = pcp_check(sym, g, x0)
        if not witness.found:
            result.check(False, lambda: f"no witness for sym={sym}, x0={x0}")
            continue
        value = evaluate_general(GeneralSymbol.from_linear(sym), x0, witness.jet)
        result.check(
            value == g.evaluate(x0),
            lambda: f"witness mismatch for sym={sym}, g={g}, x0={x0}",
        )
    return result


def hermite_suite(rng: random.Random, cases: int = 100) -> SuiteResult:
    """Interpolants reproduce every prescribed jet exactly."""
    result = SuiteResult("jet interpolation")
    for _ in range(cases):
        m = rng.randint(1, 3)
        k = rng.randint(0, 2)
        points = _rand_points(rng, m, rng.randint(1, 3))
        jets = [
            JetVector(
                m, k, [rand_scalar(rng) for _ in range(jet_dimension(m, k))]
            )
            for _ in points
        ]
        f = hermite_interpolate(points, jets)
        result.check(
            all(taylor_jet(f, p, k) == jet for p, jet in zip(points, jets)),
            lambda: f"points={points}, k={k}",
        )
    return result


ALL_SUITES = (
    ("prolongation-identity", prolongation_identity_suite, 200),
    ("commutation", commutation_suite, 100),
    ("desingularization", desingularization_suite, 200),
    ("surjectivity", surjectivity_suite, 100),
    ("solver-soundness", solver_soundness_suite, 200),
    ("singular-solving", singular_solving_suite, None),
    ("gluing", gluing_suite, 50),
    ("pcp", pcp_suite, 100),
    ("hermite", hermite_suite, 100),
)


def run_all(seed: int = 0, scale: float = 1.0) -> list[SuiteResult]:
    results = []
    for name, suite, cases in ALL_SUITES:
        rng = random.Random(f"{seed}:{name}")
        if cases is None:
            results.append(suite(rng))
        else:
            results.append(suite(rng, max(1, int(cases * scale))))
    return results
