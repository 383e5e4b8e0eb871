"""Hostile input exits 2 with a message, never with a traceback, and
finishes in bounded time; and source guards against module-level imports
nothing uses and private functions and classes nothing calls."""

import ast
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jetforge
from jetforge import cli
from jetforge.cli import run_command
from jetforge.algebra import shift, taylor_jet
from jetforge.errors import ParseError
from jetforge.jets import JetVector
from jetforge.parser import _MAX_NESTING, parse_operator, parse_polynomial

SOURCES = sorted(
    path for path in Path(jetforge.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_guard_sees_an_unused_name():
    source = "from fractions import Fraction\nimport math\nx = math.pi\n"
    assert _unused_imports(source) == ["Fraction"]


def _unreferenced_privates(sources: list[str]) -> list[str]:
    """Module-level _private functions and classes no other statement names.

    A name counts as referenced where a Name, an attribute or an import
    alias outside the defining statement spells it, in any of the sources.
    """
    spelling = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    statements = [node for source in sources for node in ast.parse(source).body]
    names = [
        {
            getattr(node, spelling[type(node)])
            for node in ast.walk(statement)
            if type(node) in spelling
        }
        for statement in statements
    ]
    return [
        statement.name
        for k, statement in enumerate(statements)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and statement.name.startswith("_")
        and not statement.name.startswith("__")
        and not any(statement.name in used for j, used in enumerate(names) if j != k)
    ]


def test_no_unreferenced_private_functions_or_classes():
    package = Path(jetforge.__file__).parent.glob("*.py")
    sources = [path.read_text(encoding="utf-8") for path in sorted(package)]
    assert _unreferenced_privates(sources) == []


def test_private_guard_sees_an_unreferenced_definition():
    used_elsewhere = "from .a import _imported\nx = m._called_as_attribute\n"
    source = (
        "def _imported(): pass\n"
        "def _called_as_attribute(): pass\n"
        "def _recursive(): return _recursive()\n"
        "class _Unused: pass\n"
        "def __getattr__(name): pass\n"
        "def public(): pass\n"
    )
    assert _unreferenced_privates([source, used_elsewhere]) == [
        "_recursive", "_Unused"
    ]


def _nested(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


def test_nesting_up_to_the_limit_parses_as_without_parentheses():
    inner = "x1*d[1,0] + 2*d[0,1]"
    assert parse_operator(_nested(_MAX_NESTING, inner)) == parse_operator(inner)
    # an operator on every level: v -> x1*d[1] + 2*v, from v = d[1]
    text = "d[1]"
    for _ in range(_MAX_NESTING):
        text = f"x1*d[1] - -2*({text})^1"
    n = 2**_MAX_NESTING
    assert parse_operator(text) == parse_operator(f"({n - 1}*x1 + {n})*d[1]")


def test_nesting_past_the_limit_is_located_at_its_parenthesis():
    with pytest.raises(ParseError) as info:
        parse_operator("d[1] + " + _nested(_MAX_NESTING + 1, "d[1]"))
    column = len("d[1] + ") + _MAX_NESTING + 1
    assert (info.value.line, info.value.column) == (1, column)
    assert f"nested deeper than {_MAX_NESTING}" in str(info.value)


def test_deep_parentheses_exit_2(capsys):
    assert run_command(["symbol", "--op", _nested(300, "d[1]")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: 1:{_MAX_NESTING + 1}: parentheses nested")


@pytest.mark.parametrize("output", ["text", "json"])
def test_result_number_over_the_digit_limit_exits_2(capsys, output):
    argv = ["--output", output, "solve", "--op", "d[1]", "--point", "1/3",
            "--order", "2", "--rhs", "x1^100000"]
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a number in the result is too long to print\n"


def test_other_value_errors_still_surface(monkeypatch):
    def broken(args):
        raise ValueError("not a digit limit")

    monkeypatch.setitem(cli._HANDLERS, "symbol", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        run_command(["symbol", "--op", "d[1]"])


# Recentring a sparse polynomial of high degree costs what its few terms
# need.  A table of the point's denominator to every power up to the
# degree would take minutes and gigabytes for these inputs; each case
# must finish within this bound.
SPARSE_BOUND_S = 5.0


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < SPARSE_BOUND_S, f"took {elapsed:.1f} s"
    return out


def test_taylor_jet_of_a_sparse_high_degree_polynomial():
    p = parse_polynomial("x1^100000 + x2")
    third = Fraction(1, 3)
    jet = _timed(taylor_jet, p, (third, Fraction(1, 5)), 2)
    assert jet == JetVector.from_mapping(2, 2, {
        (0, 0): third**100000 + Fraction(1, 5),
        (1, 0): 100000 * third**99999,
        (0, 1): 1,
        (2, 0): 100000 * 99999 * third**99998,
    })


def test_shift_of_a_sparse_high_degree_polynomial():
    # x1 stays put, so the result keeps three terms
    p = parse_polynomial("x1^100000 + x2")
    assert _timed(shift, p, (Fraction(0), Fraction(1, 5))) == p + Fraction(1, 5)


# pcp isolates rational roots by bisecting a root bound, so a right-hand
# side of many digits costs steps in proportion to its digit count.  A
# search over the divisors of the constant takes 13 s on the second case
# and longer than anyone waits on the next two.  On the last, bisecting
# Cauchy's bound (the largest coefficient, 3^319 * C(320, 160) after
# z = 3y) takes 13 s.  Each case must finish within the same bound as above.
@pytest.mark.parametrize("op, rhs, code, out", [
    ("y[1]^2", "1000000000000000000000000000000007", 1,
     "no witness: freeze-and-solve univariate in y[1]: no rational root; "
     "isolated 2 real root(s)\n"),
    ("y[1]^3 + y[0]", "12345678901234567", 0,
     "witness: y[0] = 12345678901234567\n"),
    ("y[1]^2", str(10**82), 0, f"witness: y[1] = {10**41}\n"),
    ("3*(y[1] + 1)^320 + 5*y[1]^3", "7", 1,
     "no witness: freeze-and-solve univariate in y[1]: no rational root; "
     "isolated 2 real root(s)\n"),
], ids=["no-rational-root", "linear", "square-of-10^41", "degree-320"])
def test_pcp_with_a_right_hand_side_of_many_digits(capsys, op, rhs, code, out):
    argv = ["pcp", "--op", op, "--point", "0", "--rhs", rhs]
    assert _timed(run_command, argv) == code
    assert capsys.readouterr() == (out, "")


# A path that cannot name a file (a NUL byte; argv from the OS cannot hold
# one, but library callers of run_command can pass it) and a file that is
# not UTF-8 are refused like a missing file.
@pytest.mark.parametrize("argv, prefix", [
    (["symbol", "--op", "a\0b.pdo"], "cannot read operator file"),
    (["solve-multi", "--op", "d[1]", "--points-file", "a\0b", "--order", "1",
      "--rhs", "x1"], "cannot read points file"),
])
def test_nul_byte_in_a_file_path_exits_2(capsys, argv, prefix):
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {prefix}: ")


def test_operator_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "op.pdo"
    path.write_bytes(b"d[1] \xff\n")
    assert run_command(["symbol", "--op", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read operator file: 'utf-8' codec")
