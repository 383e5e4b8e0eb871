import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import jetforge
from jetforge import cli
from jetforge.checks import SuiteResult
from jetforge.cli import run_command

LEWY_PDO = """\
dim 3 order 1
d[1,0,0] + i*d[0,1,0] + (-2*i*x1 + 2*x2)*d[0,0,1]
"""


@pytest.fixture(scope="module")
def schema():
    return json.loads(jetforge.schema_path().read_text())


@pytest.fixture()
def lewy_file(tmp_path):
    path = tmp_path / "lewy.pdo"
    path.write_text(LEWY_PDO)
    return str(path)


def run_json(capsys, argv):
    code = run_command(["--output", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_symbol_report(capsys, schema, lewy_file):
    code, report = run_json(capsys, ["symbol", "--op", lewy_file])
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["dim"] == 3 and report["order"] == 1
    assert report["total"] == report["principal"]


def test_prolong_report(capsys, schema):
    code, report = run_json(
        capsys, ["prolong", "--op", "x1^2*d[1]", "--level", "2"]
    )
    assert code == 0
    jsonschema.validate(report, schema)
    betas = [tuple(c["beta"]) for c in report["components"]]
    assert betas == [(0,), (1,), (2,)]
    assert report["components"][2]["symbol"] == "2*d[1] + 4*x1*d[2] + x1^2*d[3]"


def test_vanish_single_point(capsys, schema):
    code, report = run_json(
        capsys, ["vanish", "--op", "x1^2*d[1]", "--point", "0"]
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["order"] == {"exactly": 1}


def test_vanish_grid(capsys, schema):
    code, report = run_json(
        capsys,
        [
            "vanish", "--op", "x1^2*d[1]",
            "--point", "-1", "--point", "0", "--point", "1",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    orders = [r["order"] for r in report["reports"]]
    assert orders == ["not_vanishing", {"exactly": 1}, "not_vanishing"]


def test_rank_report(capsys, schema, lewy_file):
    code, report = run_json(
        capsys, ["rank", "--op", lewy_file, "--point", "0,0,0", "--level", "1"]
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["rank"] == 4 and report["full"] is True


def test_solve_success(capsys, schema, lewy_file):
    code, report = run_json(
        capsys,
        [
            "solve", "--op", lewy_file,
            "--point", "0,0,0", "--order", "2", "--rhs", "x1",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["status"] == "solved"
    assert report["post_check"] == "exact"
    assert report["polynomial"]
    assert report["pivots"]


def test_solve_unsolvable_exit_one(capsys, schema):
    code, report = run_json(
        capsys,
        ["solve", "--op", "x1*d[1]", "--point", "0", "--order", "0", "--rhs", "1"],
    )
    assert code == 1
    jsonschema.validate(report, schema)
    assert report["status"] == "unsolvable"


def test_solve_multi(capsys, schema, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n1\n")
    code, report = run_json(
        capsys,
        [
            "solve-multi", "--op", "d[1]",
            "--points-file", str(points), "--order", "0", "--rhs", "1",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["status"] == "solved"
    assert report["post_check"] == "exact"


def test_pcp_witness(capsys, schema, lewy_file):
    code, report = run_json(
        capsys, ["pcp", "--op", lewy_file, "--point", "0,0,0", "--rhs", "1"]
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["status"] == "witness"
    hits = [
        e for e in report["jet"]["entries"] if e["re"] != "0" or e["im"] != "0"
    ]
    assert hits == [{"alpha": [1, 0, 0], "re": "1", "im": "0"}]


def test_pcp_no_witness_exit_one(capsys, schema):
    code, report = run_json(
        capsys, ["pcp", "--op", "y[1]^2", "--point", "0", "--rhs", "-1"]
    )
    assert code == 1
    jsonschema.validate(report, schema)
    assert report["status"] == "no_witness"
    assert "0 real root" in report["note"]


def test_check_quick(capsys, schema):
    code, report = run_json(capsys, ["check", "--seed", "1", "--quick"])
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["all_passed"] is True
    assert len(report["suites"]) == 9


def test_check_seed_0_output_is_pinned(capsys):
    # byte-identity gate for every exact kernel: the full check report
    assert run_command(["--output", "json", "check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "16a32a95c26e0f84997b425505ccb093282f415e855bded0b94cdcc253a24c61"
    )


def test_cli_import_leaves_importlib_resources_unloaded():
    # -S keeps site hooks from importing it first; schema_path imports it on call
    code = "import sys, jetforge.cli; print('importlib.resources' in sys.modules)"
    src = str(Path(jetforge.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout == "False\n"


def test_parse_error_exit_two(capsys):
    code = run_command(["vanish", "--op", "d[1", "--point", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    assert run_command(["vanish"]) == 2
    assert run_command(["no-such-command"]) == 2


def test_reused_arg_parser_leaks_no_state(capsys):
    assert cli._arg_parser() is cli._arg_parser()  # built once per process
    vanish = ["vanish", "--op", "x1^2*d[1]"]
    # the appended --point list starts empty on every call
    code, report = run_json(capsys, [*vanish, "--point", "0", "--point", "1"])
    assert code == 0 and len(report["reports"]) == 2
    code, report = run_json(capsys, [*vanish, "--point", "2"])
    assert code == 0 and report["point"] == ["2"]
    # --output after the command has a suppressed default: text comes back
    assert run_command([*vanish, "--point", "0", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == ["0"]
    assert run_command([*vanish, "--point", "0"]) == 0
    assert capsys.readouterr().out == "point (0): vanishes to order exactly 1\n"
    # a usage error leaves the parser usable
    assert run_command([*vanish, "--level", "3"]) == 2
    capsys.readouterr()
    assert run_command([*vanish, "--point", "1"]) == 0
    assert capsys.readouterr().out == "point (1): does not vanish\n"


def test_prolong_cap_enforced(capsys, monkeypatch):
    monkeypatch.setenv("JETFORGE_MAX_PROLONG", "3")
    code = run_command(["prolong", "--op", "d[1]", "--level", "4"])
    assert code == 2
    assert "JETFORGE_MAX_PROLONG" in capsys.readouterr().err
    monkeypatch.setenv("JETFORGE_MAX_PROLONG", "5")
    assert run_command(["prolong", "--op", "d[1]", "--level", "4"]) == 0
    capsys.readouterr()


def test_default_cap_is_eight(capsys, monkeypatch):
    monkeypatch.delenv("JETFORGE_MAX_PROLONG", raising=False)
    assert run_command(["prolong", "--op", "d[1]", "--level", "9"]) == 2
    capsys.readouterr()


def test_text_output_default(capsys):
    code = run_command(["vanish", "--op", "x1^2*d[1]", "--point", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "vanishes to order exactly 1" in out


def test_solve_text_output(capsys):
    code = run_command(
        ["solve", "--op", "d[1]", "--point", "0", "--order", "0", "--rhs", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "solution: x1" in out
    assert "post-check: exact" in out


def test_unsolvable_text_names_the_point(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n")
    common = ["--op", "x1*d[1]", "--order", "0", "--rhs", "1"]
    assert run_command(["solve", "--point", "0", *common]) == 1
    assert run_command(["solve-multi", "--points-file", str(points), *common]) == 1
    assert capsys.readouterr().out == "unsolvable at point (0)\n" * 2


def test_prolong_text_labels_each_component(capsys):
    assert run_command(["prolong", "--op", "x2*d[1,0]", "--level", "1"]) == 0
    assert capsys.readouterr().out == (
        "prolongation level 1:\n"
        "  beta=[0,0]  x2*d[1,0]\n"
        "  beta=[1,0]  x2*d[2,0]\n"
        "  beta=[0,1]  d[1,0] + x2*d[1,1]\n"
    )


@pytest.mark.parametrize(
    "op, point, rhs, witness",
    [
        ("d[1] + 2*d[0]", "0", "1/2 - 3*i", "y[0] = (1/4 - 3/2*i)"),
        ("d[1] + 2*d[0]", "0", "i", "y[0] = 1/2*i"),
        ("x2*d[1,0] + d[0,1]", "0,0", "1 + i", "y[0,1] = (1 + i)"),
        # an operator and its symbol in jet coordinates get one answer, and
        # a freeze of degree 1 at the point is solved in Q(i), whatever its
        # degree elsewhere and whatever terms pinning to zero removes
        ("2*i*d[1]", "0", "1", "y[1] = -1/2*i"),
        ("2*i*y[1]", "0", "1", "y[1] = -1/2*i"),
        ("x1*y[1]^2 + i*y[1]", "0", "1", "y[1] = -i"),
        ("(1 + i)*y[1] + y[0]*y[1]", "1", "2", "y[1] = (1 - i)"),
    ],
)
def test_pcp_text_renders_a_gaussian_witness(capsys, op, point, rhs, witness):
    argv = ["pcp", "--op", op, "--point", point, "--rhs", rhs]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == f"witness: {witness}\n"


def test_long_inline_operator_is_parsed_not_statted(capsys):
    op = " + ".join(f"{k}*x1^{k}*d[1]" for k in range(1, 40))
    assert len(op) >= 300
    assert run_command(["symbol", "--op", op]) == 0
    assert "d[1]" in capsys.readouterr().out


def test_long_invalid_inline_operator_exits_2(capsys):
    op = "d[1] + " * 43 + "@"
    assert len(op) >= 300
    assert run_command(["symbol", "--op", op]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_only_a_pdo_suffix_makes_op_a_file(capsys, tmp_path, monkeypatch):
    # a file named like the DSL text is not read in its place
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x1*d[1]").write_text("not an operator document\n")
    (tmp_path / "lewy.pdo").write_text(LEWY_PDO)
    assert run_command(["symbol", "--op", "x1*d[1]"]) == 0
    assert "total symbol:     x1*d[1]\n" in capsys.readouterr().out
    assert run_command(["symbol", "--op", "lewy.pdo"]) == 0
    assert capsys.readouterr().out.startswith("dimension: 3   order: 1\n")


# -- pinned outputs: the solve reports must stay byte-identical ---------------

LEWY_SOLVED_JET = [
    ([0, 0, 0], "0", "0"),
    ([1, 0, 0], "1", "1/4"),
    ([0, 1, 0], "0", "0"),
    ([0, 0, 1], "1/4", "0"),
    ([2, 0, 0], "-1", "5/2"),
    ([1, 1, 0], "0", "0"),
    ([1, 0, 1], "2", "0"),
    ([0, 2, 0], "0", "0"),
    ([0, 1, 1], "0", "0"),
    ([0, 0, 2], "0", "0"),
]


def test_solve_pinned_report(capsys, schema, lewy_file):
    code, report = run_json(
        capsys,
        [
            "solve", "--op", lewy_file, "--point", "1/2,1/3,1",
            "--order", "1", "--rhs", "x1*x2 + x3^2",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["jet"] == {
        "m": 3,
        "order": 2,
        "entries": [
            {"alpha": a, "re": re, "im": im} for a, re, im in LEWY_SOLVED_JET
        ],
    }
    assert report["polynomial"] == (
        "(1/8 + 3/16*i) + (-1/2 - i)*x1 - 3/4*x3 + (-1/2 + 5/4*i)*x1^2"
        " + 2*x1*x3"
    )
    assert report["pivots"] == [[1, 0, 0], [0, 0, 1], [2, 0, 0], [1, 0, 1]]
    assert report["post_check"] == "exact"


@pytest.mark.parametrize("order, pivots", [("0", []), ("2", [[1], [2]])])
def test_solve_unsolvable_pinned_pivots(capsys, schema, order, pivots):
    code, report = run_json(
        capsys,
        ["solve", "--op", "x1*d[1]", "--point", "0", "--order", order, "--rhs", "1"],
    )
    assert code == 1
    jsonschema.validate(report, schema)
    assert report["pivots"] == pivots
    assert report["jet"] is None and report["polynomial"] is None


def test_solve_multi_pinned_polynomial(capsys, schema, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n1\n")
    code, report = run_json(
        capsys,
        [
            "solve-multi", "--op", "x1*d[1] + d[0] + d[2]",
            "--points-file", str(points), "--order", "1", "--rhs", "x1^2 + 1",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    # bumps (x1 - 1)^4 and x1^4: degree (k+1)(n-1) + k = 7 for k = 3, n = 2
    assert report["polynomial"] == "1 - 15*x1^4 + 39*x1^5 - 34*x1^6 + 10*x1^7"
    assert report["post_check"] == "exact"


def test_solve_multi_pinned_lewy_three_points(capsys, schema, lewy_file, tmp_path):
    # multi-variable gluing: 3 bumps in R^3, jets of order 2, glued along the
    # separating form x1 + x2 + x3 (x1 alone takes 0 at two of the points)
    points = tmp_path / "points.txt"
    points.write_text("0,0,0\n1,0,0\n0,1/2,1\n")
    code, report = run_json(
        capsys,
        [
            "solve-multi", "--op", lewy_file,
            "--points-file", str(points), "--order", "1", "--rhs", "x1",
        ],
    )
    assert code == 0
    jsonschema.validate(report, schema)
    text = report["polynomial"]
    assert text.startswith("1/2*x1^2 + 65*x1^3 + 200*x1^2*x2 + 200*x1^2*x3 + ")
    assert len(text) == 2539
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ada42dbe75cc1cb4835badebe105258c8bdfb988dbd19ada70190e586701aba4"
    )
    assert report["post_check"] == "exact"


# -- hostile input exits 2 with a located message ---------------------------

def test_pdo_zero_dimension_exits_2(capsys, tmp_path):
    path = tmp_path / "zero.pdo"
    path.write_text("# nothing\ndim 0 order 0\n0\n")
    assert run_command(["symbol", "--op", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2:1: dimension must be >= 1")
    assert "Traceback" not in err


def test_pdo_body_errors_report_file_lines(capsys, tmp_path):
    path = tmp_path / "bad.pdo"
    path.write_text("# a comment\n# another\ndim 1 order 1\n\nd[1] + $\n")
    assert run_command(["symbol", "--op", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 5:8: unexpected character '$'")


def test_rhs_too_wide_for_the_operator_is_located(capsys):
    argv = ["solve", "--op", "d[1]", "--point", "0", "--order", "0",
            "--rhs", "x1+x2"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: 1:4: declared dimension 1 too small for the polynomial\n"


@pytest.mark.parametrize(
    "op, where",
    [
        ("d[1] + 3" + "7" * 4400, "1:8:"),  # over the interpreter's digit limit
        ("x" + "1" * 5000 + "*d[1]", "1:1:"),  # the same, as a variable index
        ("d[1]*²", "1:6:"),  # a superscript digit is not an integer
        ("x²*d[1]", "1:1:"),
    ],
    ids=["long-literal", "long-index", "superscript-literal", "superscript-index"],
)
def test_bad_integer_literals_exit_2(capsys, op, where):
    assert run_command(["symbol", "--op", op]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} ") and "Traceback" not in err


@pytest.mark.parametrize(
    "op, where",
    [("1/0*d[1]", "1:3"), ("d[1] + 1/0", "1:10"), ("(1/0)*d[1]", "1:4")],
    ids=["before-star", "at-end", "before-paren"],
)
def test_zero_denominator_is_located_at_the_zero(capsys, op, where):
    assert run_command(["symbol", "--op", op]) == 2
    assert capsys.readouterr().err == f"error: {where}: zero denominator\n"


@pytest.mark.parametrize(
    "argv, max_prolong, message",
    [
        (["prolong", "--op", "y[1]^2", "--level", "1"], None,
         "this command needs a linear operator (d[...] atoms)"),
        (["rank", "--op", "d[1]", "--point", "0", "--level=-1"], None,
         "level must be >= 0"),
        (["solve-multi", "--op", "d[1]", "--points-file", "{comments}",
          "--order", "0", "--rhs", "1"], None, "points file contains no points"),
        (["prolong", "--op", "d[1]", "--level", "1"], "abc",
         "JETFORGE_MAX_PROLONG must be an integer, got 'abc'"),
        (["symbol", "--op", "x0*d[1]"], None,
         "1:1: variable index must be >= 1, got 'x0'"),
        (["symbol", "--op", "{comments}.pdo"], None, "1:1: empty operator file"),
    ],
    ids=["nonlinear-prolong", "negative-level", "points-file-of-comments",
         "max-prolong-not-int", "variable-x0", "pdo-of-comments"],
)
def test_input_errors_exit_2_with_their_message(
    capsys, tmp_path, monkeypatch, argv, max_prolong, message
):
    comments = tmp_path / "comments"
    for path in (comments, comments.with_suffix(".pdo")):
        path.write_text("# only a comment\n\n")
    if max_prolong is None:
        monkeypatch.delenv("JETFORGE_MAX_PROLONG", raising=False)
    else:
        monkeypatch.setenv("JETFORGE_MAX_PROLONG", max_prolong)
    argv = [a.replace("{comments}", str(comments)) for a in argv]
    assert run_command(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_text_output_ends_with_its_verdict(capsys):
    assert run_command(["check", "--quick", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and lines[-1] == "all passed"


def test_check_text_output_names_a_failing_suite(capsys, monkeypatch):
    failing = SuiteResult("jet interpolation", cases=2, failures=["jets differ"])
    monkeypatch.setattr(cli, "run_all", lambda seed, scale: [failing])
    assert run_command(["check", "--seed", "0"]) == 1
    assert capsys.readouterr().out == (
        "FAIL jet interpolation: 1/2 cases (first failure: jets differ)\n"
        "FAILURES above\n"
    )


def test_vanish_text_for_a_zero_operator(capsys, tmp_path):
    path = tmp_path / "zero.pdo"
    path.write_text("dim 2 order 1\n0\n")
    assert run_command(["vanish", "--op", str(path), "--point", "0,1"]) == 0
    assert capsys.readouterr().out == "point (0, 1): identically zero\n"


def test_symbol_text_for_an_operator_that_cancels(capsys, tmp_path):
    path = tmp_path / "zero.pdo"
    path.write_text("dim 2 order 1\nd[1,0] - d[1,0]\n")
    assert run_command(["symbol", "--op", str(path)]) == 0
    assert capsys.readouterr().out == (
        "dimension: 2   order: 1\n"
        "total symbol:     0\n"
        "principal symbol: 0\n"
    )


@pytest.mark.parametrize(
    "header, message",
    [
        ("dim \u00b2 order 1", "first line must read 'dim m order r'"),
        ("dim 1 order " + "1" * 5000, "integer too long (5000 digits)"),
        ("dim " + "1" * 5000 + " order 1", "integer too long (5000 digits)"),
    ],
    ids=["superscript-dim", "long-order", "long-dim"],
)
def test_pdo_bad_header_numbers_exit_2(capsys, tmp_path, header, message):
    path = tmp_path / "bad.pdo"
    path.write_text(f"# comment\n{header}\nd[1]\n", encoding="utf-8")
    assert run_command(["symbol", "--op", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: 2:1: {message}") and "Traceback" not in err


@pytest.mark.parametrize(
    "point, message",
    [
        ("1e100000", "bad coordinate '1e100000'"),
        ("0.5", "bad coordinate '0.5'"),
        ("1/0", "bad coordinate '1/0'"),
        ("0,1/2,-3.0", "bad coordinate '-3.0'"),
        ("1" * 5000, "integer too long (5000 digits)"),
    ],
    ids=["exponent", "decimal", "zero-denominator", "one-bad-of-three", "long"],
)
def test_bad_point_coordinates_exit_2(capsys, point, message):
    assert run_command(["vanish", "--op", "x1^2*d[1]", f"--point={point}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: 1:1: {message}") and "Traceback" not in err


def test_points_file_coordinates_use_the_same_grammar(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n0.5\n")
    argv = ["solve-multi", "--op", "d[1]", "--points-file", str(points),
            "--order", "0", "--rhs", "1"]
    assert run_command(argv) == 2
    assert "bad coordinate '0.5'" in capsys.readouterr().err


def test_points_file_error_reports_its_file_line(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n0.5\n")
    argv = ["solve-multi", "--op", "d[1]", "--points-file", str(points),
            "--order", "0", "--rhs", "1"]
    assert run_command(argv) == 2
    assert "error: 2:1: bad coordinate '0.5'" in capsys.readouterr().err
    # comments and blank lines still count as file lines
    points.write_text("# header\n\n0\n1/0\n")
    assert run_command(argv) == 2
    assert "error: 4:1: bad coordinate '1/0'" in capsys.readouterr().err


def test_repeated_points_are_reported_like_report_points(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0\n0\n")
    argv = ["solve-multi", "--op", "d[1]", "--points-file", str(points),
            "--order", "0", "--rhs", "1"]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.strip() == "error: point (0) repeated"
    points.write_text("0,1/2\n1,0\n0,2/4\n")
    argv[2] = "d[1,0]"
    assert run_command(argv) == 2
    assert capsys.readouterr().err.strip() == "error: point (0, 1/2) repeated"


def test_signed_rational_point_parses(capsys):
    code, report = run_json(capsys, ["vanish", "--op", "x1*d[1]", "--point=-5/3"])
    assert code == 0
    assert report["point"] == ["-5/3"]
    code, report = run_json(capsys, ["vanish", "--op", "x1*d[1]", "--point=+5/3"])
    assert report["point"] == ["5/3"]


def test_point_of_wrong_dimension_reports_one_line(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("1\n2\n")
    op = ["--op", "d[1,0]"]
    commands = [
        ["solve", *op, "--point", "1", "--order", "1", "--rhs", "x1"],
        ["solve-multi", *op, "--points-file", str(points), "--order", "1",
         "--rhs", "x1"],
        ["rank", *op, "--point", "1", "--level", "1"],
        ["vanish", *op, "--point", "1"],
        ["pcp", *op, "--point", "1", "--rhs", "x1"],
    ]
    for argv in commands:
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: point of length 1 for dimension 2\n"
