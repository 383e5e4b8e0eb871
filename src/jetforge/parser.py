"""Parser for the operator and polynomial DSL.

Grammar (whitespace insignificant)::

    operator   := expr                      -- must use d[...] atoms
    body       := expr                      -- may use y[...] atoms instead
    polynomial := expr                      -- x variables only
    expr       := term (("+" | "-") term)*
    term       := ("+" | "-")* factor ("*" factor)*
    factor     := atom ["^" INT]
    atom       := RATIONAL | "i" | VAR | SLOT | "(" expr ")"
    RATIONAL   := INT ["/" INT]
    VAR        := "x" INT                   -- x1, x2, ...
    SLOT       := ("d" | "y") "[" INT ("," INT)* "]"

A ``d[a1,...,am]`` atom stands for the derivative D^(a1,...,am): linear
operators are sums of coefficient polynomials times exactly one ``d``
atom each.  A ``y[...]`` atom is a jet coordinate, giving a possibly
nonlinear symbol body.  The literal ``i`` is the imaginary unit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import NamedTuple

from .algebra import MultiPoly
from .errors import ParseError
from .jets import MultiIndex, _index_of, jet_dimension, weight
from .scalar import Scalar
from .symbols import GeneralSymbol, LinearSymbol

_PUNCT = set("+-*/^()[],")
# deepest parenthesis nesting parsed; each level costs the parser four frames
_MAX_NESTING = 100
_COORDINATE = re.compile(r"([+-]?\d+)(?:/(\d+))?")  # \d is str.isdecimal
_PDO_HEADER = re.compile(r"\s*dim\s+(\d+)\s+order\s+(\d+)\s*")  # \s is str.isspace


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    column: int


def _int(digits: str, line: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:  # over the interpreter's int digit limit
        raise ParseError(
            f"integer too long ({len(digits)} digits)", line, column
        ) from None


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(_Token("int", _int(text[start:i], line, col), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


# Syntax tree: ("const", Scalar), ("atom", key), ("+", [nodes]), ("-", node),
# ("*", [nodes]) and ("^", node, n).  An atom key is ("x", j), ("d", alpha)
# or ("y", alpha); _Parser.atoms maps each distinct key to its first token.


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current token
        self.atoms: dict[tuple, _Token] = {}
        self.terms: dict = {}  # set by expand
        self.alive: list = []

    def expand(self) -> "_Parser":
        """Parse the whole text, then evaluate its tree once over the working
        layout where atom k (in order of first appearance) is variable k+1:
        ``terms`` maps exponent tuples to coefficients, and ``alive`` lists
        the atoms that survive cancellation."""
        tree = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(
                f"unexpected trailing input {self.describe(tok)}",
                expected=("eof",),
            )
        n = len(self.atoms)
        variables = {
            key: MultiPoly.variable(n, k) for k, key in enumerate(self.atoms, 1)
        }
        value = _evaluate(tree, variables)
        if isinstance(value, MultiPoly):
            self.terms = value.terms
        elif value:
            self.terms = {(0,) * n: value}
        used = {k for alpha in self.terms for k, e in enumerate(alpha) if e}
        self.alive = [key for k, key in enumerate(self.atoms) if k in used]
        return self

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected=()):
        _fail(message, self.peek(), expected)

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

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            term = self.parse_term()
            terms.append(term if op == "+" else ("-", term))
        return terms[0] if len(terms) == 1 else ("+", terms)

    def parse_term(self):
        negate = False
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                negate = not negate
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        node = factors[0] if len(factors) == 1 else ("*", factors)
        return ("-", node) if negate else node

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            base = ("^", base, self.expect("int").value)
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                denom = self.expect("int")
                if denom.value == 0:
                    _fail("zero denominator", denom)
                value = Fraction(tok.value, denom.value)
            return ("const", Scalar(value))
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return self.parse_ident()
        self.fail(
            f"expected a number, variable, d[...], y[...] or '(', found "
            f"{self.describe(tok)}",
            expected=("int", "ident", "("),
        )

    def parse_ident(self):
        tok = self.advance()
        name = tok.value
        if name == "i":
            return ("const", Scalar(0, 1))
        if name in ("d", "y"):
            key = (name, self.parse_slot())
        elif name.startswith("x") and name[1:].isdecimal():
            index = _int(name[1:], tok.line, tok.column)
            if index < 1:
                _fail(f"variable index must be >= 1, got {name!r}", tok)
            key = ("x", index)
        else:
            _fail(f"unknown identifier {name!r} (expected x<k>, i, d[...] or y[...])",
                  tok, expected=("variable", "i", "d", "y"))
        self.atoms.setdefault(key, tok)
        return ("atom", key)

    def parse_slot(self) -> MultiIndex:
        self.expect("[")
        entries = [self.expect("int").value]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.expect("int").value)
        self.expect("]")
        return tuple(entries)


def _evaluate(node, variables):
    """The value of a tree: a Scalar until it meets an atom, then a
    MultiPoly over the working layout ``variables`` (atom key -> variable)."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "atom":
        return variables[node[1]]
    if op == "-":
        return -_evaluate(node[1], variables)
    if op == "^":
        return _evaluate(node[1], variables) ** node[2]
    values = [_evaluate(child, variables) for child in node[1]]
    return reduce(add if op == "+" else mul, values)


def _fail(message: str, tok: _Token, expected=()):
    raise ParseError(message, tok.line, tok.column, expected)


def _top(parsed: _Parser, kind: str):
    """The first alive atom of ``kind`` with the largest index (x) or weight
    (d, y), or None."""
    keys = [key for key in parsed.alive if key[0] == kind]
    size = (lambda key: key[1]) if kind == "x" else (lambda key: weight(key[1]))
    return max(keys, key=size, default=None)


def _remap(parsed: _Parser, m: int, width: int, pos=None):
    """Re-index every term into the final layout: x<j> goes to position j-1,
    y[alpha] to m + pos[alpha], and a term's one d[...] atom names the group
    it lands in.  Returns ``{slot or None: {exponents: coefficient}}`` and
    the first token of a term without a d[...] atom (or None)."""
    groups: dict = {}
    bare = None
    for alpha, c in parsed.terms.items():
        exps = [0] * width
        slot = None
        for (kind, payload), e in zip(parsed.atoms, alpha):
            if not e:
                continue
            if kind == "x":
                exps[payload - 1] = e
            elif kind == "y":
                exps[m + pos[payload]] = e
            elif slot is None and e == 1:
                slot = payload
            else:
                _fail("operator terms must be linear in d[...]",
                      parsed.atoms[kind, payload])
        groups.setdefault(slot, {})[tuple(exps)] = c
        if slot is None and bare is None:
            bare = _lead(parsed, alpha)
    return groups, bare


def _lead(parsed: _Parser, alpha) -> _Token:
    """The first token of a term's first atom, or of the text."""
    atoms = (parsed.atoms[key] for key, e in zip(parsed.atoms, alpha) if e)
    return next(atoms, parsed.tokens[0])


def parse_polynomial(text: str, dim=None) -> MultiPoly:
    """Parse a polynomial in x1..xm over the Gaussian rationals."""
    parsed = _Parser(text).expand()
    for key in parsed.alive:
        if key[0] != "x":
            _fail("polynomials cannot contain d[...] or y[...] atoms",
                  parsed.atoms[key])
    top = _top(parsed, "x")
    m = top[1] if top is not None else 1
    if dim is not None:
        if dim < m:
            _fail(f"declared dimension {dim} too small for the polynomial",
                  parsed.atoms[top] if top is not None else parsed.tokens[0])
        m = dim
    groups, _ = _remap(parsed, m, m)
    return MultiPoly(m, groups.get(None))


def _slot_dimension(parsed: _Parser, kind: str, dim) -> int:
    """The length of the alive ``kind`` atoms, checked against ``dim`` and
    the alive x atoms."""
    slots = [key for key in parsed.alive if key[0] == kind]
    m = len(slots[0][1])
    odd = next((key for key in slots if len(key[1]) != m), None)
    if odd is not None:
        lengths = sorted({len(key[1]) for key in slots})
        _fail(f"{kind}[...] atoms of mixed lengths {lengths}", parsed.atoms[odd])
    if dim is not None and dim != m:
        _fail(f"{kind}[...] atoms have length {m} but dimension {dim} was "
              f"declared", parsed.atoms[slots[0]])
    top = _top(parsed, "x")
    if top is not None and top[1] > m:
        _fail(f"variable x{top[1]} exceeds the operator dimension {m}",
              parsed.atoms[top])
    return m


def _order(parsed: _Parser, kind: str, order, what: str) -> int:
    top = _top(parsed, kind)
    r = weight(top[1])
    if order is not None and order < r:
        _fail(f"declared order {order} below the top {what} {r}",
              parsed.atoms[top])
    return r if order is None else order


def _build_linear(parsed: _Parser, dim, order) -> LinearSymbol:
    if not any(key[0] == "d" for key in parsed.alive):
        if parsed.terms:
            lead = _lead(parsed, next(iter(parsed.terms)))
            _fail("every operator term needs exactly one d[...] factor", lead)
        if dim is None:
            _fail("zero operator needs an explicit dimension", parsed.tokens[0])
        return LinearSymbol(dim, order if order is not None else 0, {})
    m = _slot_dimension(parsed, "d", dim)
    groups, bare = _remap(parsed, m, m)
    if bare is not None:
        _fail("every operator term needs exactly one d[...] factor", bare)
    r = _order(parsed, "d", order, "derivative weight")
    return LinearSymbol(
        m, r, {slot: MultiPoly(m, bucket) for slot, bucket in groups.items()}
    )


def _build_general(parsed: _Parser, dim, order) -> GeneralSymbol:
    m = _slot_dimension(parsed, "y", dim)
    r = _order(parsed, "y", order, "jet coordinate weight")
    width = m + jet_dimension(m, r)
    groups, _ = _remap(parsed, m, width, _index_of(m, r))
    return GeneralSymbol(m, r, MultiPoly(width, groups.get(None)))


def parse_operator(text: str, dim=None, order=None):
    """Parse operator DSL text to a LinearSymbol or a GeneralSymbol.

    ``d[...]`` atoms give a linear symbol, ``y[...]`` atoms a general one;
    mixing them is an error.  ``dim``/``order`` override inference (the
    declared order may exceed the largest stored weight, never undercut
    it).  Kind, dimension and order are read from the atoms that survive
    expansion, and each semantic error is located at its atom.
    """
    parsed = _Parser(text).expand()
    slots = [key for key in parsed.alive if key[0] != "x"]
    other = next((key for key in slots if key[0] != slots[0][0]), None)
    if other is not None:
        _fail("operator mixes d[...] and y[...] atoms", parsed.atoms[other])
    if slots and slots[0][0] == "y":
        return _build_general(parsed, dim, order)
    return _build_linear(parsed, dim, order)


def parse_point(text: str, line: int = 1):
    """Parse a comma-separated rational point like ``0,1/2,-3``: each
    coordinate is ``[+|-]INT[/INT]`` in decimal digits (no ``0.5``, ``1e3``).
    ``line`` is the source line errors report."""
    coords = []
    for part in (p.strip() for p in text.split(",")):
        match = _COORDINATE.fullmatch(part)
        den = match and _int(match[2] or "1", line, 1)  # None or 0: refused
        if not den:
            message = f"bad coordinate {part!r} in point {text!r}"
            raise ParseError(f"{message} (expected p or p/q, q nonzero)", line, 1)
        coords.append(Fraction(_int(match[1], line, 1), den))
    return tuple(coords)


def parse_pdo(text: str):
    """Parse a .pdo document: header line ``dim m order r``, then DSL.
    Comment lines (``#``) and the header are blanked, not dropped, so
    errors in the operator text carry their file line."""
    lines = ["" if ln.strip().startswith("#") else ln for ln in text.splitlines()]
    at = next((idx for idx, line in enumerate(lines) if line.strip()), None)
    if at is None:
        raise ParseError("empty operator file", 1, 1)
    header = _PDO_HEADER.fullmatch(lines[at])
    if not header:
        raise ParseError("first line must read 'dim m order r'", at + 1, 1)
    m = _int(header[1], at + 1, 1)
    r = _int(header[2], at + 1, 1)
    if m < 1:
        raise ParseError("dimension must be >= 1", at + 1, 1)
    lines[at] = ""
    body = "\n".join(lines)
    if not body.strip():
        raise ParseError("operator file has no operator text", at + 2, 1)
    return parse_operator(body, dim=m, order=r)
