import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import parser_oracle

from jetforge.algebra import MultiPoly, format_poly
from jetforge.cli import run_command
from jetforge.errors import ParseError
from jetforge.jets import enumerate_multiindices
from jetforge.parser import (
    parse_operator,
    parse_pdo,
    parse_point,
    parse_polynomial,
)
from jetforge.scalar import Scalar
from jetforge.symbols import (
    GeneralSymbol,
    LinearSymbol,
    format_general,
    format_operator,
    lewy_symbol,
)


# -- polynomials -------------------------------------------------------------

def test_parse_simple_terms():
    assert parse_polynomial("3/2*x1^2*x2") == MultiPoly(
        2, {(2, 1): Fraction(3, 2)}
    )
    assert parse_polynomial("i*x3") == MultiPoly(3, {(0, 0, 1): Scalar(0, 1)})
    assert parse_polynomial("-1") == MultiPoly.constant(1, -1)


def test_parse_sums_and_parens():
    p = parse_polynomial("(x1 + 1)^2 - x1^2 - 2*x1")
    assert p == MultiPoly.constant(1, 1)


def test_parse_unary_minus_binds_product():
    assert parse_polynomial("-2*x1") == MultiPoly(1, {(1,): -2})
    assert parse_polynomial("-x1^2") == MultiPoly(1, {(2,): -1})


def test_parse_complex_coefficients():
    p = parse_polynomial("(1 - 2*i)*x1")
    assert p == MultiPoly(1, {(1,): Scalar(1, -2)})


def test_parse_dim_override():
    p = parse_polynomial("x1", dim=3)
    assert p.num_vars == 3


def test_polynomial_rejects_operators():
    with pytest.raises(ParseError):
        parse_polynomial("d[1]")


def test_polynomial_round_trip_random():
    rng = random.Random(53)
    for _ in range(40):
        m = rng.randint(1, 3)
        alphas = enumerate_multiindices(m, 3)
        p = MultiPoly(
            m,
            {
                rng.choice(alphas): Scalar(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)),
                )
                for _ in range(rng.randint(1, 4))
            },
        )
        assert parse_polynomial(format_poly(p), dim=m) == p


# -- linear operators --------------------------------------------------------

def test_parse_lewy():
    text = "d[1,0,0] + i*d[0,1,0] + (-2*i*x1 + 2*x2)*d[0,0,1]"
    assert parse_operator(text) == lewy_symbol()


def test_parse_coefficient_monomial():
    sym = parse_operator("x1^2*d[1]")
    assert sym == LinearSymbol(1, 1, {(1,): MultiPoly.monomial(1, (2,))})


def test_parse_unterminated_slot():
    with pytest.raises(ParseError) as err:
        parse_operator("d[1")
    assert err.value.line == 1
    assert err.value.expected


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_operator("d[1,0] + @")
    assert err.value.line == 1
    assert err.value.column == 10


def test_trailing_input_after_a_whole_expression_is_refused(capsys):
    with pytest.raises(ParseError) as err:
        parse_operator("d[1] d[1]")
    assert str(err.value) == "1:6: unexpected trailing input 'd'"
    assert err.value.expected == ("eof",)
    assert run_command(["symbol", "--op", "d[1] d[1]"]) == 2
    assert capsys.readouterr() == (
        "", "error: 1:6: unexpected trailing input 'd'\n"
    )


def test_operator_terms_must_carry_d():
    with pytest.raises(ParseError):
        parse_operator("x1 + d[1]")


def test_operator_rejects_nonlinear_d():
    with pytest.raises(ParseError):
        parse_operator("d[1]*d[1]")
    with pytest.raises(ParseError):
        parse_operator("d[1]^2")


def test_operator_rejects_mixed_arities():
    with pytest.raises(ParseError):
        parse_operator("d[1] + d[1,0]")


def test_operator_rejects_mixed_atoms():
    with pytest.raises(ParseError):
        parse_operator("d[1] + y[1]")


def test_operator_variable_outside_dimension():
    with pytest.raises(ParseError):
        parse_operator("x2*d[1]")


def test_declared_order_padding():
    sym = parse_operator("d[1]", order=3)
    assert sym.order == 3
    with pytest.raises(ParseError):
        parse_operator("d[2]", order=1)


def test_minus_separates_terms():
    sym = parse_operator("d[1] - x1*d[0]")
    assert sym == LinearSymbol(
        1,
        1,
        {(1,): MultiPoly.constant(1, 1), (0,): MultiPoly(1, {(1,): -1})},
    )


def test_operator_round_trip_random():
    rng = random.Random(59)
    for _ in range(40):
        m = rng.randint(1, 3)
        r = rng.randint(0, 2)
        slots = enumerate_multiindices(m, r)
        coeff_alphas = enumerate_multiindices(m, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            coeff = MultiPoly(
                m,
                {
                    rng.choice(coeff_alphas): Scalar(
                        Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
                    )
                    for _ in range(rng.randint(1, 2))
                },
            )
            if coeff:
                terms[rng.choice(slots)] = coeff
        if not terms:
            continue
        sym = LinearSymbol(m, r, terms)
        assert parse_operator(format_operator(sym), order=r) == sym


@pytest.mark.parametrize(
    "text, printed",
    [
        ("d[1]", "d[1]"),
        ("-d[1]", "-d[1]"),
        (
            "d[0,1] - d[1,0] + x1*d[2,0] - x2*d[1,1] + 2*d[0,2] + i*d[0,0]"
            " - i*d[3,0] + (x1+1)*d[1,2] - 1/2*d[2,1]",
            "i*d[0,0] - d[1,0] + d[0,1] + x1*d[2,0] - x2*d[1,1] + 2*d[0,2]"
            " - i*d[3,0] - 1/2*d[2,1] + (1 + x1)*d[1,2]",
        ),
    ],
)
def test_format_operator_prints_unit_coefficients_bare(text, printed):
    # only the constants 1 and -1 print as a bare or negated slot: not x1,
    # -x2 or -i, whose single term is not at the zero exponent or not real
    assert format_operator(parse_operator(text)) == printed


# -- located semantic errors ------------------------------------------------

@pytest.mark.parametrize(
    "text, kwargs, where, message",
    [
        ("d[1,0] + d[1]", {}, (1, 10), "d[...] atoms of mixed lengths [1, 2]"),
        ("d[1] + x3*d[1]", {}, (1, 8), "variable x3 exceeds the operator dimension 1"),
        ("x1*d[1] + d[2]*d[2]", {}, (1, 11), "operator terms must be linear in d[...]"),
        ("y[1]*d[1]", {}, (1, 6), "operator mixes d[...] and y[...] atoms"),
        ("d[1] + x1", {}, (1, 8), "every operator term needs exactly one d[...] factor"),
        ("y[2] + y[1,0]", {}, (1, 8), "y[...] atoms of mixed lengths [1, 2]"),
        ("x1*d[1] + d[2]", {"order": 1}, (1, 11),
         "declared order 1 below the top derivative weight 2"),
        ("y[0] + y[2]^2", {"order": 1}, (1, 8),
         "declared order 1 below the top jet coordinate weight 2"),
        ("x1 + 2*d[1,0]", {"dim": 3}, (1, 8),
         "d[...] atoms have length 2 but dimension 3 was declared"),
        ("d[1]-d[1]", {}, (1, 1), "zero operator needs an explicit dimension"),
    ],
)
def test_operator_errors_point_at_their_atom(text, kwargs, where, message):
    with pytest.raises(ParseError) as info:
        parse_operator(text, **kwargs)
    assert (info.value.line, info.value.column) == where
    assert str(info.value) == f"{where[0]}:{where[1]}: {message}"
    with pytest.raises(ParseError) as old:
        parser_oracle.parse_operator(text, **kwargs)
    assert str(old.value) == f"1:1: {message}"  # the same text, unlocated


@pytest.mark.parametrize(
    "text, dim, where, message",
    [
        ("x1 + x2", 1, (1, 6), "declared dimension 1 too small for the polynomial"),
        ("x1 + 3*d[1]", None, (1, 8), "polynomials cannot contain d[...] or y[...] atoms"),
    ],
)
def test_polynomial_errors_point_at_their_atom(text, dim, where, message):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, dim=dim)
    assert str(info.value) == f"{where[0]}:{where[1]}: {message}"
    with pytest.raises(ParseError) as old:
        parser_oracle.parse_polynomial(text, dim=dim)
    assert str(old.value) == f"1:1: {message}"


def test_cancelled_atoms_do_not_count():
    sym = parse_operator("x1^2*d[2] - x1^2*d[2] + d[1]")
    assert sym == LinearSymbol(1, 1, {(1,): MultiPoly.constant(1, 1)})
    assert parse_operator("d[1]-d[1]", dim=2) == LinearSymbol(2, 0, {})
    assert parse_operator("y[3] - y[3] + x1*y[1]").order == 1
    assert parse_polynomial("x5 - x5 + x1") == MultiPoly.variable(1, 1)
    assert parse_polynomial("d[1] - d[1] + x1") == MultiPoly.variable(1, 1)


# -- differential test against the evaluate-while-parsing oracle ------------

_slot = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(
    lambda a: ",".join(map(str, a))
)
_leaf = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "i"]),
    st.builds("{}/{}".format, st.integers(0, 5), st.integers(1, 4)),
    _slot.map("d[{}]".format),
    _slot.map("y[{}]".format),
)


def _combine(inner):
    return st.one_of(
        st.builds("{} + {}".format, inner, inner),
        st.builds("{} - {}".format, inner, inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        inner.map("-({})".format),
        # a term and its negation: cancelled atoms must not count
        st.builds("{0}*{1} - ({1})*{0}".format, inner, inner),
    )


def _operator_shaped(m, kind):
    """Sums of (polynomial)*d[...] or (polynomial)*y[...] with slots of length m."""
    poly = st.recursive(
        st.sampled_from(["x1", "x2", "x3", "i", "2", "-1/3"]), _combine, max_leaves=3
    )
    slot = st.lists(st.integers(0, 2), min_size=m, max_size=m).map(
        lambda a: ",".join(map(str, a))
    )
    term = st.builds(f"({{}})*{kind}[{{}}]".format, poly, slot)
    return st.lists(term, min_size=1, max_size=3).map(" - ".join)


_dsl = st.one_of(
    st.recursive(_leaf, _combine, max_leaves=6),
    st.tuples(st.integers(1, 2), st.sampled_from("dy")).flatmap(
        lambda shape: _operator_shaped(*shape)
    ),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


@settings(max_examples=300)
@given(_dsl)
@example("x1^2*d[2] - x1^2*d[2] + d[1]")
@example("d[1]-d[1]")
@example("y[1]*d[1] - d[1]*y[1] + y[0,1]")
def test_tree_parser_agrees_with_oracle(text):
    assert _outcome(parse_operator, text) == _outcome(
        parser_oracle.parse_operator, text
    )
    assert _outcome(parse_polynomial, text) == _outcome(
        parser_oracle.parse_polynomial, text
    )


# -- general symbols ---------------------------------------------------------

def test_parse_square_symbol():
    gsym = parse_operator("y[1]^2")
    assert gsym == GeneralSymbol(1, 1, MultiPoly(3, {(0, 0, 2): 1}))


def test_parse_general_with_base_variables():
    gsym = parse_operator("x1*y[0,1] + y[1,0]^2 - 3")
    assert isinstance(gsym, GeneralSymbol)
    assert gsym.base_dim == 2 and gsym.order == 1
    assert parse_operator(format_general(gsym)) == gsym


def test_general_round_trip():
    gsym = parse_operator("y[2]^2 + i*y[0] + x1^3")
    assert parse_operator(format_general(gsym)) == gsym


# -- points ------------------------------------------------------------------

def test_parse_point():
    assert parse_point("0,1/2,-3") == (Fraction(0), Fraction(1, 2), Fraction(-3))


def test_parse_point_rejects_garbage():
    with pytest.raises(ParseError):
        parse_point("1,two")


def test_parse_point_errors_carry_the_given_line():
    with pytest.raises(ParseError) as info:
        parse_point("1,two", 7)
    assert (info.value.line, info.value.column) == (7, 1)
    assert str(info.value).startswith("7:1: bad coordinate 'two'")
    with pytest.raises(ParseError) as info:
        parse_point("1" * 5000, 3)
    assert str(info.value).startswith("3:1: integer too long")


# -- .pdo files --------------------------------------------------------------

LEWY_PDO = """\
# the classic example on R^3
dim 3 order 1
d[1,0,0] + i*d[0,1,0] + (-2*i*x1 + 2*x2)*d[0,0,1]
"""


def test_parse_pdo():
    assert parse_pdo(LEWY_PDO) == lewy_symbol()


def test_parse_pdo_multiline_operator():
    text = "dim 1 order 2\nd[2]\n + x1*d[1]\n"
    sym = parse_pdo(text)
    assert sym == LinearSymbol(
        1,
        2,
        {(2,): MultiPoly.constant(1, 1), (1,): MultiPoly.variable(1, 1)},
    )


def test_parse_pdo_bad_header():
    with pytest.raises(ParseError):
        parse_pdo("order 1 dim 3\nd[1,0,0]")


@pytest.mark.parametrize(
    "header, accepted",
    [
        ("dim 3 order 1", True),
        ("dim\t3\torder\t1", True),
        ("dim   3  order    1", True),
        ("  dim 3 order 1 \t", True),
        ("dim\u00a03 order\u00a01", True),  # U+00A0 is whitespace
        ("dim \u0663 order 1", True),  # ARABIC-INDIC DIGIT THREE is a decimal
        ("dim \u00b2 order 1", False),  # a superscript digit is not
        ("dim 3 order 1 x", False),
        ("Dim 3 order 1", False),
    ],
    ids=["plain", "tabs", "space-runs", "padded", "nbsp", "arabic-indic-digit",
         "superscript-digit", "five-fields", "capital-dim"],
)
def test_parse_pdo_header(header, accepted):
    text = f"# comment\n{header}\n{LEWY_PDO.splitlines()[-1]}\n"
    if accepted:
        assert parse_pdo(text) == lewy_symbol()
    else:
        with pytest.raises(ParseError) as info:
            parse_pdo(text)
        assert str(info.value) == "2:1: first line must read 'dim m order r'"


def test_parse_pdo_errors_carry_file_lines():
    with pytest.raises(ParseError) as info:
        parse_pdo("# one\n# two\ndim 1 order 1\n\nd[1] + $\n")
    assert (info.value.line, info.value.column) == (5, 8)
    with pytest.raises(ParseError) as info:
        parse_pdo("dim 1 order 1\nd[2]\n# comment\n + x2*d[1]\n")
    assert str(info.value) == "4:4: variable x2 exceeds the operator dimension 1"


def test_parse_pdo_empty_body_rejected():
    with pytest.raises(ParseError):
        parse_pdo("dim 1 order 1\n")
