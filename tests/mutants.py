"""A standing mutation gate: small deliberate faults the tests must catch.

Each record names a file, the exact text a mutant replaces, the text it
puts in its place, the test node ids that must fail, and why the mutant
matters.  Run it by hand from the repository root (a few minutes)::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only these

It copies ``src/``, ``tests/``, ``perfbench/``, ``README.md`` and
``pyproject.toml`` into a temporary directory (``tests/test_api.py`` reads
``perfbench/`` and ``README.md``), applies one mutant at a time there and
runs its tests with ``python -m pytest -x -q --hypothesis-seed=0``.  A
mutant is caught when those tests fail.  Each record names test node
ids, never a whole file: under a mutant of an arithmetic kernel a file's
hypothesis tests can run for many minutes.  The known misses change only
what a result costs, not the result; they run too and are expected to
survive.  The exit status is 1 when a mutant survives, a known miss is
caught (move it to ``MUTANTS``), or a run errs.  ``tests/test_mutants.py``
checks in tier-1 that each old text occurs exactly once in its file, so a
refactor that removes it must re-target the mutant, and that each record
names node ids.

Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


MUTANTS = (
    # glue with a separating linear form
    Mutant(
        "bump-power-doubled",
        "src/jetforge/algebra.py",
        "** (k + 1) for p in points]",
        "** (2 * k + 2) for p in points]",
        ("tests/test_algebra.py::test_interpolation_degree_is_bounded",),
        "a bump of twice the power still glues, but past the degree bound",
    ),
    Mutant(
        "separating-t-from-one",
        "src/jetforge/algebra.py",
        "    for t in count():\n",
        "    for t in count(1):\n",
        ("tests/test_algebra.py::test_separating_form_takes_the_least_t_and_glues",),
        "t = 0 separates points that differ in x1 and must be taken first",
    ),
    Mutant(
        "derivative-cache-128",
        "src/jetforge/symbols.py",
        "@lru_cache(maxsize=1024)",
        "@lru_cache(maxsize=128)",
        ("tests/test_symbols.py::test_second_prolong_is_served_from_the_derivative_cache",),
        "a level-8 prolongation must stay in the derivative cache",
    ),
    Mutant(
        "eager-importlib-resources",
        "src/jetforge/__init__.py",
        '__version__ = "0.1.0"\n',
        'from importlib import resources\n\n__version__ = "0.1.0"\n',
        ("tests/test_cli.py::test_cli_import_leaves_importlib_resources_unloaded",),
        "importing importlib.resources costs every CLI call a fifth of import",
    ),
    # rational roots by integer Sturm isolation
    Mutant(
        "negative-root-on-ties",
        "src/jetforge/roots.py",
        "bound if z is None else z - 1)",
        "bound if z is None else z)",
        ("tests/test_roots.py::test_first_rational_root",),
        "of two roots of equal size the positive one comes first",
    ),
    Mutant(
        "no-monic-scaling",
        "src/jetforge/roots.py",
        "    q = [c * a ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]\n",
        "    q, a = p, 1\n",
        ("tests/test_roots.py::test_first_rational_root",
         "tests/test_roots.py::test_planted_roots_of_any_height_are_found"),
        "without z = a*y the integer roots of q are not the rational roots",
    ),
    Mutant(
        "unreferenced-private-helper",
        "src/jetforge/roots.py",
        "def _horner(",
        "def _unused():\n    pass\n\n\ndef _horner(",
        ("tests/test_hostile.py::test_no_unreferenced_private_functions_or_classes",),
        "a private function nothing calls is dead code",
    ),
    Mutant(
        "cauchy-root-bound",
        "src/jetforge/roots.py",
        "    bound = 2 << top\n",
        "    bound = 1 + max(abs(c) for c in q[:-1])\n",
        ("tests/test_hostile.py::test_pcp_with_a_right_hand_side_of_many_digits",),
        "bisecting Cauchy's bound takes steps in the largest coefficient's size",
    ),
    # one remainder loop
    Mutant(
        "gcd-not-monic",
        "src/jetforge/roots.py",
        "    return [Fraction(c, a[-1]) for c in a]\n",
        "    return [Fraction(c) for c in a]\n",
        ("tests/test_roots.py::test_poly_gcd_matches_fraction_euclid_oracle",),
        "poly_gcd promises the monic gcd",
    ),
    Mutant(
        "gcd-skips-last-remainder",
        "src/jetforge/roots.py",
        "    while b:\n",
        "    while len(b) > 1:\n",
        ("tests/test_roots.py::test_poly_gcd",),
        "a constant remainder means the gcd is 1",
    ),
    Mutant(
        "prem-lead-sign-kept",
        "src/jetforge/roots.py",
        "    b = b if b[-1] > 0 else [-c for c in b]\n",
        "",
        ("tests/test_roots.py::test_roots_match_divisor_search_oracle",),
        "a negative lead flips the signs of Sturm chain members",
    ),
    Mutant(
        "gcd-skips-primitive-step",
        "src/jetforge/roots.py",
        "        a, b = b, r and _integer_poly(r)\n",
        "        a, b = b, r\n",
        ("tests/test_roots.py::test_gcd_remainders_are_made_primitive",),
        "the gcd stays the same but the remainders grow: 61 bits instead of "
        "28 on Knuth's pair",
    ),
    # second paths removed in favour of the first
    Mutant(
        "symbol-keeps-zero-terms",
        "src/jetforge/symbols.py",
        "            if coeff:\n                clean[alpha] = coeff\n",
        "            clean[alpha] = coeff\n",
        ("tests/test_symbols.py::test_total_derivative_stores_no_cancelled_term",),
        "the total derivative relies on LinearSymbol dropping cancelled terms",
    ),
    Mutant(
        "desingularization-off-by-one",
        "src/jetforge/vanishing.py",
        "            return level\n",
        "            return level + 1\n",
        ("tests/test_vanishing.py::test_desingularization_of_quadratic_zero",
         "tests/test_vanishing.py::test_desingularization_law_random"),
        "the minimal level is the first nonzero one",
    ),
    Mutant(
        "desingularization-prolongs-to-cap",
        "src/jetforge/vanishing.py",
        "prolong(sym, level).components",
        "prolong(sym, cap).components",
        ("tests/test_vanishing.py::test_nonzero_symbol_stops_before_any_total_derivative",),
        "a symbol nonzero at the point needs no total derivative",
    ),
    Mutant(
        "gcd-note-on-real-equations",
        "src/jetforge/solver.py",
        'if any(im) else ""',
        'if im else ""',
        ("tests/test_hostile.py::test_pcp_with_a_right_hand_side_of_many_digits",),
        "a real equation goes through the gcd but keeps its plain note",
    ),
    Mutant(
        "hermite-order-from-dimension",
        "src/jetforge/algebra.py",
        "    k = jets[0].order\n",
        "    k = jets[0].base_dim\n",
        ("tests/test_algebra.py::test_interpolation_random_exactness",),
        "hermite_interpolate reads the order k from its jets",
    ),
    Mutant(
        "jet-quotient-keeps-zeros",
        "src/jetforge/algebra.py",
        "    g = {b: gb for b, gb in _centred(den).items() if gb}\n",
        "    g = _centred(den)\n",
        ("tests/test_algebra.py::test_jet_quotient_requires_unit_denominator",),
        "a zero constant term must be refused as NotAUnit, not divided by",
    ),
    Mutant(
        "sub-refuses-numbers",
        "src/jetforge/algebra.py",
        "(int, Fraction, Scalar, MultiPoly)):",
        "(MultiPoly,)):",
        ("tests/test_algebra.py::test_two_point_order_zero",
         "tests/test_algebra.py::test_interpolation_degree_is_bounded"),
        "MultiPoly - number must go through __add__'s conversion",
    ),
    Mutant(
        "prolong-lex-order",
        "src/jetforge/symbols.py",
        "    return ProlongedSymbol(sym, s, comps)\n",
        "    return ProlongedSymbol(sym, s, dict(sorted(comps.items())))\n",
        ("tests/test_symbols.py::test_prolong_components_come_in_graded_lex_order",),
        "the prolong report lists components in prolong's own order",
    ),
    Mutant(
        "op-file-by-name",
        "src/jetforge/cli.py",
        '    if path.suffix == ".pdo":\n',
        '    if path.suffix == ".pdo" or path.is_file():\n',
        ("tests/test_cli.py::test_only_a_pdo_suffix_makes_op_a_file",),
        "only a .pdo suffix makes --op a path",
    ),
    # one rule, one helper
    Mutant(
        "check-solved-ignores-verdict",
        "src/jetforge/checks.py",
        "    result.check(residual_vanishes(sym, g, f, points, s), describe)\n",
        "    result.check(True, describe)\n",
        ("tests/test_acceptance.py::test_solving_suites_report_a_wrong_solution",),
        "a suite that records a solve as passed without the jet check proves nothing",
    ),
    Mutant(
        "term-text-keeps-minus-one",
        "src/jetforge/scalar.py",
        '    if c == -1:\n        return "-" + mono\n',
        "",
        ("tests/test_scalar.py::test_text_forms",
         "tests/test_parser.py::test_format_operator_prints_unit_coefficients_bare",
         "tests/test_byte_identity.py::test_digested_rounds_match_their_pin"),
        "a coefficient -1 prints as a bare minus, in Scalars, polynomials and operators",
    ),
    # one Gaussian integer over one denominator
    Mutant(
        "scalar-skips-gcd",
        "src/jetforge/scalar.py",
        "        g = math.gcd(re, im, den)\n",
        "        g = 1\n",
        ("tests/test_scalar.py::test_every_operation_leaves_the_canonical_form",),
        "without the gcd equal values store different triples and compare unequal",
    ),
    Mutant(
        "scalar-same-den-add-wrong-den",
        "src/jetforge/scalar.py",
        "self._im + other._im, a)",
        "self._im + other._im, a * b)",
        ("tests/test_scalar.py::test_scalar_matches_the_fraction_oracle",),
        "the sum of two values over one denominator keeps that denominator",
    ),
    Mutant(
        "scalar-div-drops-divisor-den",
        "src/jetforge/scalar.py",
        "        f = other._den\n",
        "        f = 1\n",
        ("tests/test_scalar.py::test_scalar_matches_the_fraction_oracle",),
        "dividing by (c + d*i)/f multiplies by f",
    ),
    Mutant(
        "scalar-real-hash-as-tuple",
        "src/jetforge/scalar.py",
        "hash(Fraction(self._re, self._den))",
        "hash((self._re, self._den))",
        ("tests/test_scalar.py::test_real_scalar_equals_and_hashes_as_its_rational",
         "tests/test_scalar.py::test_dict_keyed_by_a_fraction_finds_the_equal_scalar"),
        "a real Scalar must hash as the rational it equals",
    ),
    # the elimination kernel
    Mutant(
        "pivot-times-lead",
        "src/jetforge/linalg.py",
        "(x * lr + y * li, y * lr - x * li)",
        "(x * lr - y * li, y * lr + x * li)",
        ("tests/test_linalg.py::test_integer_elimination_edge_cases",
         "tests/test_linalg.py::test_integer_elimination_matches_scalar_oracle"),
        "a pivot row is scaled by conj(lead), so its lead is a positive integer",
    ),
    Mutant(
        "no-back-substitution-rescale",
        "src/jetforge/linalg.py",
        "        if scale > 1:\n",
        "        if False:\n",
        ("tests/test_linalg.py::test_solution_satisfies_system",
         "tests/test_linalg.py::test_integer_elimination_edge_cases"),
        "the common denominator grows to the lcm of every reduced one",
    ),
    Mutant(
        "consistency-flag-ignored",
        "src/jetforge/linalg.py",
        "                    consistent = False\n",
        "                    consistent = True\n",
        ("tests/test_linalg.py::test_solve_inconsistent",
         "tests/test_solver.py::test_solve_unsolvable_raises"),
        "a row reduced to its right-hand side alone makes the system unsolvable",
    ),
    Mutant(
        "no-pivot-row-content",
        "src/jetforge/linalg.py",
        "                    row = _primitive(\n",
        "                    row = (\n",
        ("tests/test_linalg.py::test_integer_elimination_edge_cases",
         "tests/test_linalg.py::test_content_steps_bound_the_parts_entering_primitive[dense-30]"),
        "a pivot row is stored primitive; without that step the dense 30 x 30 "
        "system sends 714-bit parts to _primitive instead of 496",
    ),
    Mutant(
        "no-content-step",
        "src/jetforge/linalg.py",
        "    if g == 1:\n",
        "    if True:\n",
        ("tests/test_linalg.py::test_integer_elimination_edge_cases", "tests/test_linalg.py::test_content_steps_bound_the_parts_entering_primitive"),
        "without any content step a dense elimination's integers explode",
    ),
    Mutant(
        "no-reduced-row-content",
        "src/jetforge/linalg.py",
        "            row = _primitive(row)\n",
        "",
        ("tests/test_linalg.py::test_content_steps_bound_the_parts_entering_primitive",),
        "the results stay the same but the parts reaching _primitive grow: "
        "318 bits instead of 79 on Lewy s=6, 3,599 instead of 496 dense",
    ),
    Mutant(
        "fiber-column-reversed",
        "src/jetforge/symbols.py",
        "row[col_pos[alpha]]",
        "row[col_pos[alpha[::-1]]]",
        ("tests/test_symbols.py::test_fiber_matrix_level_zero_single_row",
         "tests/test_symbols.py::test_prolongation_evaluation_identity"),
        "entry (beta, alpha) sits in alpha's graded-lex column",
    ),
    Mutant(
        "full-rank-against-columns",
        "src/jetforge/solver.py",
        "full=r == jet_dimension(sym.base_dim, k)",
        "full=r == jet_dimension(sym.base_dim, sym.order + k)",
        ("tests/test_solver.py::test_lewy_full_rank",
         "tests/test_cli.py::test_rank_report"),
        "the level-k map is onto when its rank is the row count C(m+k, m)",
    ),
    # integer products and recentring
    Mutant(
        "product-cross-term-sign",
        "src/jetforge/algebra.py",
        "                im += r1 * i2 + i1 * r2\n",
        "                im += r1 * i2 - i1 * r2\n",
        ("tests/test_algebra.py::test_product_matches_scalar_oracle",),
        "(r1 + i1*i)(r2 + i2*i) has imaginary part r1*i2 + i1*r2",
    ),
    Mutant(
        "product-keeps-cancelled-terms",
        "src/jetforge/algebra.py",
        "                if re or im:\n                    out[key] = (re, im)\n"
        "                else:\n                    del out[key]\n",
        "                out[key] = (re, im)\n",
        ("tests/test_algebra.py::test_ring_identities",
         "tests/test_algebra.py::test_product_matches_scalar_oracle"),
        "a product stores no zero coefficient",
    ),
    Mutant(
        "product-drops-cancelled-terms-late",
        "src/jetforge/algebra.py",
        "                    del out[key]\n        return MultiPoly._trusted(\n",
        "                    out[key] = (0, 0)\n"
        "        out = {a: v for a, v in out.items() if v != (0, 0)}\n"
        "        return MultiPoly._trusted(\n",
        ("tests/test_algebra.py::test_product_matches_scalar_oracle",),
        "a term that cancels and comes back goes last, and term order is "
        "observable through the parser's error location",
    ),
    Mutant(
        "recentred-power-without-weight",
        "src/jetforge/algebra.py",
        "f = d_power(lift + w)",
        "f = d_power(lift)",
        ("tests/test_algebra.py::test_recentred_matches_scalar_oracle",
         "tests/test_hostile.py::test_shift_of_a_sparse_high_degree_polynomial"),
        "a contribution of weight w over d**(|alpha| - w) needs d**(deg - |alpha| + w)",
    ),
    Mutant(
        "from-gaussian-wrong-den",
        "src/jetforge/scalar.py",
        "_scalar(re, im, den) for re, im in pairs",
        "_scalar(re, im, 2 * den) for re, im in pairs",
        ("tests/test_algebra.py::test_product_matches_scalar_oracle",
         "tests/test_linalg.py::test_solve_unique"),
        "the integer kernels hand back values over their common denominator",
    ),
    # the generated-input gate
    Mutant(
        "vanish-grid-text-raises",
        "src/jetforge/cli.py",
        'report.get("reports", [report])',
        'report.get("report", [report])',
        ("tests/test_generated_requests.py::test_generated_requests_exit_0_1_or_2",),
        "rendering a text report must not raise; no hand-picked test "
        "renders a vanish grid as text",
    ),
    # one spelling per value
    Mutant(
        "slot-text-comma-space",
        "src/jetforge/jets.py",
        """{kind}[{','.join(map(str, alpha))}]""",
        """{kind}[{', '.join(map(str, alpha))}]""",
        ("tests/test_parser.py::test_format_operator_prints_unit_coefficients_bare",
         "tests/test_solver.py::test_nonlinear_witness_matches_per_coordinate_oracle",
         "tests/test_cli.py::test_prolong_text_labels_each_component",
         "tests/test_cli.py::test_pcp_text_renders_a_gaussian_witness"),
        "every multiindex label is written by one function, and operator "
        "text must round-trip and match the witness notes byte for byte",
    ),
    Mutant(
        "jet-shape-base-dim-only",
        "src/jetforge/jets.py",
        "        if shape != (m, k):\n",
        "        if shape[0] != m:\n",
        ("tests/test_jets.py::test_vector_space_operations",
         "tests/test_algebra.py::test_jet_quotient_requires_equal_specs"),
        "jets of one base dimension but different orders must not be added "
        "or divided: zip would silently truncate the longer one",
    ),
    # one pcp path
    Mutant(
        "degree-one-root-unsigned",
        "src/jetforge/solver.py",
        "root = -equation[0] / equation[1]",
        "root = equation[0] / equation[1]",
        ("tests/test_solver.py::test_linear_witness_lewy",
         "tests/test_cli.py::test_pcp_text_renders_a_gaussian_witness"),
        "the one root of e0 + e1*y is -e0/e1, for linear symbols as for any other",
    ),
    Mutant(
        "top-counts-vanishing-powers",
        "src/jetforge/solver.py",
        "if j == chosen and v)",
        "if j == chosen)",
        ("tests/test_cli.py::test_pcp_text_renders_a_gaussian_witness",),
        "a power whose coefficient vanishes at the point does not raise the "
        "degree: x1*y^2 + i*y is of degree 1 at x1 = 0",
    ),
    # one check per index rule
    Mutant(
        "multiindex-sign-unchecked",
        "src/jetforge/jets.py",
        "    if len(alpha) != m or min(alpha) < 0:\n",
        "    if len(alpha) != m:\n",
        ("tests/test_algebra.py::test_malformed_multiindex_has_one_message",),
        "a negative index is no multiindex: D^(-1,0) must not act as the "
        "identity, nor a d[-1] term reach the fiber matrix as a bare KeyError",
    ),
    Mutant(
        "from-mapping-keeps-stray-keys",
        "src/jetforge/jets.py",
        "            if alpha not in index:\n",
        "            if False:\n",
        ("tests/test_jets.py::test_from_mapping_refuses_keys_outside_the_jet",
         "tests/test_algebra.py::test_malformed_multiindex_has_one_message"),
        "an entry the jet has no slot for must be refused, not silently "
        "dropped into a zero jet",
    ),
)

KNOWN_MISSES = (
    Mutant(
        "no-lead-part-gcd",
        "src/jetforge/linalg.py",
        "                    h = math.gcd(lr, li)\n",
        "                    h = 1\n",
        ("tests/test_linalg.py",),
        "the stored rows are identical and only the cost grows: _primitive "
        "divides 9,052 rows instead of 7,418 over 36 solve-deep requests, "
        "and solve-deep loses 3-7% of its throughput",
    ),
)


def _run(mutant: Mutant, workdir: Path) -> str:
    target = workdir / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *mutant.tests]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    try:
        result = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                                text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_text(original, encoding="utf-8")
    # 1: tests failed; 2: the mutant broke collection
    if result.returncode in (1, 2):
        return "caught"
    if result.returncode == 0:
        return "missed"
    return f"error (pytest exit {result.returncode}): {result.stdout[-300:]}"


def main(names: list[str]) -> int:
    chosen = [(m, True) for m in MUTANTS] + [(m, False) for m in KNOWN_MISSES]
    if names:
        chosen = [(m, must) for m, must in chosen if m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, workdir / part, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, workdir)
        for mutant, must_catch in chosen:
            outcome = _run(mutant, workdir)
            expected = "caught" if must_catch else "missed"
            note = "" if must_catch else f" (known miss: {mutant.reason})"
            print(f"{outcome:8} {mutant.name}{note}", flush=True)
            bad += outcome != expected
    print(f"{len(chosen) - bad} of {len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
