"""Generated CLI requests: every one exits 0, 1 or 2 and raises nothing.

Well-formed requests cover every subcommand but ``check`` (m <= 3,
r <= 2, levels and orders <= 3) in text and JSON mode.  Malformed ones
are token soup over the DSL alphabet, argv with an option missing,
repeated or out of order, and ``--op`` values with and without ``.pdo``.
Every JSON report must validate against the shipped schema, and no
solve report may say its post-check FAILED.
"""

import contextlib
import io
import json
from datetime import timedelta

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import jetforge
from jetforge.cli import run_command

VALIDATOR = jsonschema.Draft202012Validator(
    json.loads(jetforge.schema_path().read_text())
)

# joined with spaces, so two integers never merge into one large exponent
SOUP_TOKENS = (
    "d[", "y[", "[", "]", ",", "x1", "x2", "x4", "x", "i", "+", "-", "*",
    "^", "/", "(", ")", "0", "1", "2", "3", "d", "y", "#", "@", "1/0",
)


@st.composite
def multiindex(draw, m, top):
    alpha = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    while sum(alpha) > top:
        alpha[alpha.index(max(alpha))] -= 1
    return alpha


def _slot(letter, alpha):
    return f"{letter}[{','.join(map(str, alpha))}]"


@st.composite
def polynomial(draw, m):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(["1", "-2", "3/2", "i", "(1 - 2*i)"]))
        powers = draw(multiindex(m, 2))
        factors = [coeff] + [
            f"x{j + 1}^{e}" for j, e in enumerate(powers) if e
        ]
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def operator(draw, m, r, linear=True):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(polynomial(m))
        if linear:
            atom = _slot("d", draw(multiindex(m, r)))
        else:
            atom = _slot("y", draw(multiindex(m, r)))
            atom += draw(st.sampled_from(["", "^2", "*" + atom]))
        terms.append(f"({coeff})*{atom}")
    return " + ".join(terms)


@st.composite
def point(draw, m):
    coords = draw(st.lists(st.sampled_from(["0", "1", "-1", "1/2", "-2/3"]),
                           min_size=m, max_size=m))
    return ",".join(coords)


@st.composite
def well_formed(draw):
    """(command, options, is_json) for one valid request; options are the
    (flag, value) pairs after the command, so they can be reshuffled, and a
    (kind, text) value is written to a file."""
    m, r = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    command = draw(st.sampled_from(
        ["symbol", "prolong", "vanish", "rank", "solve", "solve-multi", "pcp"]
    ))
    linear = command not in ("symbol", "pcp") or draw(st.booleans())
    op = draw(operator(m, r, linear))
    if draw(st.booleans()):
        op = ("pdo", f"dim {m} order {r}\n{op}\n")
    options = [("--op", op)]
    level = ("--level", str(draw(st.integers(0, 3))))
    order = ("--order", str(draw(st.integers(0, 3))))
    rhs = ("--rhs", draw(polynomial(m)))
    if command == "prolong":
        options.append(level)
    elif command == "vanish":
        for _ in range(draw(st.integers(1, 2))):
            options.append(("--point", draw(point(m))))
    elif command == "rank":
        options += [("--point", draw(point(m))), level]
    elif command == "solve":
        options += [("--point", draw(point(m))), order, rhs]
    elif command == "solve-multi":
        points = draw(st.lists(point(m), min_size=2, max_size=3, unique=True))
        options += [("--points-file", ("points", "\n".join(points))), order, rhs]
    elif command == "pcp":
        options += [("--point", draw(point(m))), rhs]
    is_json = draw(st.booleans())
    return command, options, is_json


@st.composite
def malformed(draw):
    command, options, is_json = draw(well_formed())
    kind = draw(st.sampled_from(["soup", "missing", "repeated", "order", "op"]))
    if kind == "soup":
        soup = " ".join(draw(st.lists(st.sampled_from(SOUP_TOKENS), max_size=10)))
        at = draw(st.integers(0, len(options) - 1))
        options[at] = (options[at][0], soup)
    elif kind == "missing":
        del options[draw(st.integers(0, len(options) - 1))]
    elif kind == "repeated":
        options.append(draw(st.sampled_from(options)))
    elif kind == "order":
        options = draw(st.permutations(options))
        if draw(st.booleans()):
            return command, options, is_json, True
    else:
        options[0] = ("--op", draw(st.sampled_from([
            "missing.pdo", ("pdo", "dim 1 order 1\nd[1] +\n"),
            ("pdo", "not a header\n"), ("text", "d[1]"), "x1*d[1]", "op.txt",
        ])))
    return command, options, is_json, False


def _argv(workdir, command, options, is_json, command_last=False):
    """Write the file-valued options into workdir and render argv; a value
    that starts with '-' is attached with '=', as README says."""
    rendered = []
    for flag, value in options:
        if isinstance(value, tuple):
            kind, text = value
            name = {"pdo": "op.pdo", "points": "points.txt", "text": "op.txt"}[kind]
            (workdir / name).write_text(text, encoding="utf-8")
            value = str(workdir / name)
        rendered += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    head = ["--output", "json"] if is_json else []
    return head + (rendered + [command] if command_last else [command] + rendered)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("requests")


@settings(max_examples=250, deadline=timedelta(seconds=2))
@given(
    st.one_of(
        well_formed().map(lambda case: (*case, False, True)),
        malformed().map(lambda case: (*case, False)),
    )
)
def test_generated_requests_exit_0_1_or_2(workdir, request_case):
    command, options, is_json, command_last, valid = request_case
    argv = _argv(workdir, command, options, is_json, command_last)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2), argv
    text = out.getvalue()
    if valid and is_json and code != 2:
        assert text.startswith("{"), argv
    if text.startswith("{"):
        VALIDATOR.validate(json.loads(text))
    assert "FAILED" not in text, argv
