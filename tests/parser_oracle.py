"""The evaluate-while-parsing DSL front end that jetforge.parser replaced,
kept as a test oracle.

``_Parser`` evaluates into ``_Expr``, a sparse polynomial over markers
``('x', j)``, ``('d', alpha)`` and ``('y', alpha)``, and the builders read
the expanded result.  The tree-building parser must return equal values,
or raise ``ParseError`` where this one does.
"""

from __future__ import annotations

from fractions import Fraction

from jetforge.algebra import MultiPoly
from jetforge.errors import ParseError
from jetforge.jets import MultiIndex, _index_of, jet_dimension, weight
from jetforge.parser import _int, _Token, _tokenize
from jetforge.scalar import Scalar, power
from jetforge.symbols import GeneralSymbol, LinearSymbol


# Intermediate sparse polynomial over markers: ('x', j), ('d', alpha),
# ('y', alpha).  Keys are sorted tuples of (marker, exponent) pairs.
_ZERO = Scalar()


class _Expr:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def const(cls, c: Scalar) -> "_Expr":
        if not c:
            return cls()
        return cls({(): c})

    @classmethod
    def marker(cls, mk) -> "_Expr":
        return cls({((mk, 1),): Scalar(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _Expr(out)

    def __neg__(self):
        return _Expr({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = dict(k1)
                for mk, e in k2:
                    merged[mk] = merged.get(mk, 0) + e
                key = tuple(sorted(merged.items()))
                s = out.get(key, _ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _Expr(out)

    def __pow__(self, n: int):
        return power(self, n, _Expr.const(Scalar(1)))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    @staticmethod
    def describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.value)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(
                f"expected {kind!r}, found {self.describe(tok)}",
                expected=(kind,),
            )
        return self.advance()

    def parse_expr(self) -> _Expr:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            value = value + (rhs if op == "+" else -rhs)
        return value

    def parse_term(self) -> _Expr:
        negate = False
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                negate = not negate
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.parse_factor()
        return -value if negate else value

    def parse_factor(self) -> _Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.expect("int").value
            base = base**exponent
        return base

    def parse_atom(self) -> _Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                denom = self.expect("int").value
                if denom == 0:
                    self.fail("zero denominator")
                value = Fraction(tok.value, denom)
            return _Expr.const(Scalar(value))
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return self.parse_ident()
        self.fail(
            f"expected a number, variable, d[...], y[...] or '(', found "
            f"{self.describe(tok)}",
            expected=("int", "ident", "("),
        )

    def parse_ident(self) -> _Expr:
        tok = self.advance()
        name = tok.value
        if name == "i":
            return _Expr.const(Scalar(0, 1))
        if name in ("d", "y"):
            alpha = self.parse_slot()
            return _Expr.marker((name, alpha))
        if name.startswith("x") and name[1:].isdecimal():
            index = _int(name[1:], tok.line, tok.column)
            if index < 1:
                raise ParseError(
                    f"variable index must be >= 1, got {name!r}",
                    tok.line,
                    tok.column,
                )
            return _Expr.marker(("x", index))
        raise ParseError(
            f"unknown identifier {name!r} (expected x<k>, i, d[...] or y[...])",
            tok.line,
            tok.column,
            expected=("variable", "i", "d", "y"),
        )

    def parse_slot(self) -> MultiIndex:
        self.expect("[")
        entries = [self.expect("int").value]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.expect("int").value)
        self.expect("]")
        return tuple(entries)

    def finish(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(
                f"unexpected trailing input {self.describe(tok)}",
                expected=("eof",),
            )


def _scan_markers(expr: _Expr):
    max_x = 0
    d_arities = set()
    y_arities = set()
    for key in expr.terms:
        for (kind, payload), _ in key:
            if kind == "x":
                max_x = max(max_x, payload)
            elif kind == "d":
                d_arities.add(len(payload))
            else:
                y_arities.add(len(payload))
    return max_x, d_arities, y_arities


def _resolve_dim(inferred: int, declared, what: str) -> int:
    if declared is None:
        return inferred
    if declared < inferred:
        raise ParseError(
            f"declared dimension {declared} too small for {what}", 1, 1
        )
    return declared


def _to_multipoly(expr: _Expr, dim: int) -> MultiPoly:
    terms = {}
    for key, c in expr.terms.items():
        exps = [0] * dim
        for (_, payload), e in key:  # only x markers: parse_polynomial checked
            exps[payload - 1] += e
        alpha = tuple(exps)
        terms[alpha] = terms.get(alpha, _ZERO) + c
    return MultiPoly(dim, terms)


def parse_polynomial(text: str, dim=None) -> MultiPoly:
    """Parse a polynomial in x1..xm over the Gaussian rationals."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.finish()
    max_x, d_ar, y_ar = _scan_markers(expr)
    if d_ar or y_ar:
        raise ParseError("polynomials cannot contain d[...] or y[...] atoms", 1, 1)
    m = _resolve_dim(max(max_x, 1), dim, "the polynomial")
    return _to_multipoly(expr, m)


def _build_linear(expr: _Expr, dim, order, max_x, d_arities) -> LinearSymbol:
    if len(d_arities) > 1:
        raise ParseError(
            f"d[...] atoms of mixed lengths {sorted(d_arities)}", 1, 1
        )
    arity = d_arities.pop() if d_arities else None
    if arity is None:
        if not expr.terms:
            if dim is None:
                raise ParseError(
                    "zero operator needs an explicit dimension", 1, 1
                )
            return LinearSymbol(dim, order if order is not None else 0, {})
        raise ParseError(
            "every operator term needs exactly one d[...] factor", 1, 1
        )
    if dim is not None and dim != arity:
        raise ParseError(
            f"d[...] atoms have length {arity} but dimension {dim} was "
            f"declared",
            1,
            1,
        )
    m = arity
    if max_x > m:
        raise ParseError(
            f"variable x{max_x} exceeds the operator dimension {m}", 1, 1
        )
    grouped: dict[MultiIndex, dict] = {}
    for key, c in expr.terms.items():
        slot = None
        exps = [0] * m
        for (kind, payload), e in key:
            if kind == "d":
                if slot is not None or e != 1:
                    raise ParseError(
                        "operator terms must be linear in d[...]", 1, 1
                    )
                slot = payload
            elif kind == "x":
                exps[payload - 1] += e
            else:
                raise ParseError(
                    "cannot mix y[...] with d[...] in one operator", 1, 1
                )
        if slot is None:
            raise ParseError(
                "every operator term needs exactly one d[...] factor", 1, 1
            )
        if any(a < 0 for a in slot):
            raise ParseError("derivative orders must be nonnegative", 1, 1)
        bucket = grouped.setdefault(slot, {})
        alpha = tuple(exps)
        bucket[alpha] = bucket.get(alpha, _ZERO) + c
    max_weight = max(weight(slot) for slot in grouped)
    r = order if order is not None else max_weight
    if r < max_weight:
        raise ParseError(
            f"declared order {r} below the top derivative weight "
            f"{max_weight}",
            1,
            1,
        )
    terms = {
        slot: MultiPoly(m, bucket) for slot, bucket in grouped.items()
    }
    return LinearSymbol(m, r, terms)


def _build_general(expr: _Expr, dim, order, max_x, y_arities) -> GeneralSymbol:
    if len(y_arities) > 1:
        raise ParseError(
            f"y[...] atoms of mixed lengths {sorted(y_arities)}", 1, 1
        )
    m = y_arities.pop()
    if dim is not None and dim != m:
        raise ParseError(
            f"y[...] atoms have length {m} but dimension {dim} was declared",
            1,
            1,
        )
    if max_x > m:
        raise ParseError(
            f"variable x{max_x} exceeds the operator dimension {m}", 1, 1
        )
    top = 0
    for key in expr.terms:
        for (kind, payload), _ in key:
            if kind == "y":
                top = max(top, weight(payload))
    r = order if order is not None else top
    if r < top:
        raise ParseError(
            f"declared order {r} below the top jet coordinate weight {top}",
            1,
            1,
        )
    fiber = jet_dimension(m, r)
    pos = _index_of(m, r)
    body_terms = {}
    for key, c in expr.terms.items():
        exps = [0] * (m + fiber)
        for (kind, payload), e in key:
            if kind == "x":
                exps[payload - 1] += e
            else:
                if any(a < 0 for a in payload):
                    raise ParseError(
                        "jet coordinate orders must be nonnegative", 1, 1
                    )
                if payload not in pos:
                    raise ParseError(
                        f"jet coordinate y{list(payload)} exceeds order {r}",
                        1,
                        1,
                    )
                exps[m + pos[payload]] += e
        alpha = tuple(exps)
        body_terms[alpha] = body_terms.get(alpha, _ZERO) + c
    return GeneralSymbol(m, r, MultiPoly(m + fiber, body_terms))


def parse_operator(text: str, dim=None, order=None):
    """Parse operator DSL text to a LinearSymbol or a GeneralSymbol.

    ``d[...]`` atoms give a linear symbol, ``y[...]`` atoms a general one;
    mixing them is an error.  ``dim``/``order`` override inference (the
    declared order may exceed the largest stored weight, never undercut
    it).
    """
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.finish()
    max_x, d_arities, y_arities = _scan_markers(expr)
    if d_arities and y_arities:
        raise ParseError("operator mixes d[...] and y[...] atoms", 1, 1)
    if y_arities:
        return _build_general(expr, dim, order, max_x, y_arities)
    return _build_linear(expr, dim, order, max_x, d_arities)
