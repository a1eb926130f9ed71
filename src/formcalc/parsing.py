"""Textual syntax for polynomials, forms, multivectors and result values.

Expression grammar (ASCII)::

    expr    :=  term (('+' | '-') term)*
    term    :=  unary ('*' unary)*
    unary   :=  '-'* power
    power   :=  atom ('^' INT)?
    atom    :=  INT ('/' INT)? | IDENT | '(' expr ')'

so ``^`` binds tighter than unary minus, which binds tighter than ``*``,
which binds tighter than ``+``/``-``; ``/`` appears only inside rational
literals like ``3/2``.  Whitespace is insignificant.  Parentheses nest at
most :data:`MAX_NESTING` deep.  Identifiers resolve to chart coordinates
first, then to an optional environment of named polynomials.

Tensor syntax reuses the expression grammar for coefficients::

    q1^2 * d(q1)^d(p1) + 3/2 * d(q2)^d(p2)       (forms)
    q2 * e(q1) - e(p1)^e(p2)                     (multivectors)

``^`` between ``d(...)``/``e(...)`` atoms denotes the wedge; every term of a
tensor expression must have the same grade and kind, and a term's coefficient
must sit before its atom chain, joined by ``*``.  An expression with no atoms
is an ordinary polynomial.

Printed values round-trip: :func:`parse_value` also accepts the rendered
forms of rational expressions ``(num) / (den)`` and the literals ``true``,
``false``, ``pass``, ``fail``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .chart import Chart
from .errors import ParseError
from .exterior import Form, Multivector, _accumulate, _normalize_index_tuple
from .poly import Polynomial, RationalExpr

# Each nesting level costs the recursive-descent parser five stack frames.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.start})"


def _position(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


def _error(text: str, offset: int, message: str) -> ParseError:
    line, column = _position(text, offset)
    return ParseError(message, line, column)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    offset = 0
    while offset < len(text):
        match = _TOKEN_RE.match(text, offset)
        if match is None:
            raise _error(text, offset, f"unexpected character {text[offset]!r}")
        offset = match.end()
        if match.lastgroup == "ws":
            continue
        tokens.append(_Token(match.lastgroup, match.group(), match.start(), match.end()))
    tokens.append(_Token("end", "", len(text), len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str, chart: Chart, env: Mapping[str, Polynomial] | None):
        self.text = text
        self.chart = chart
        self.env = env or {}
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, token: _Token, message: str):
        raise _error(self.text, token.start, message)

    def parse(self) -> Polynomial:
        value = self.expr()
        token = self.peek()
        if token.kind != "end":
            self.fail(token, f"unexpected token {token.text!r}")
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.unary()
        while self.peek().text == "*":
            self.advance()
            value = value * self.unary()
        return value

    def unary(self) -> Polynomial:
        negate = False
        while self.peek().text == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "int":
                self.fail(token, "exponent must be a nonnegative integer")
            self.advance()
            return base ** int(token.text)
        return base

    def atom(self) -> Polynomial:
        token = self.advance()
        if token.kind == "int":
            numerator = int(token.text)
            if self.peek().text == "/":
                self.advance()
                denom_token = self.peek()
                if denom_token.kind != "int":
                    self.fail(denom_token, "expected an integer denominator")
                self.advance()
                denominator = int(denom_token.text)
                if denominator == 0:
                    self.fail(denom_token, "zero denominator in rational literal")
                return Polynomial.constant(self.chart, Fraction(numerator, denominator))
            return Polynomial.constant(self.chart, numerator)
        if token.kind == "name":
            if token.text in self.chart:
                return Polynomial.variable(self.chart, token.text)
            value = self.env.get(token.text)
            if value is not None:
                return value
            self.fail(token, f"unknown identifier {token.text!r}")
        if token.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(token, f"parentheses nested deeper than {MAX_NESTING}")
            value = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing.text != ")":
                self.fail(closing, "expected ')'")
            return value
        if token.kind == "end":
            self.fail(token, "unexpected end of input")
        self.fail(token, f"unexpected token {token.text!r}")


def parse_expr(text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None) -> Polynomial:
    """Parse a polynomial expression against a chart (and optional named env)."""
    return _ExprParser(text, chart, env).parse()


def _atom_at(tokens: list[_Token], i: int) -> bool:
    return (
        tokens[i].kind == "name"
        and tokens[i].text in ("d", "e")
        and tokens[i + 1].text == "("
    )


def _split_terms(tokens: list[_Token]):
    """Split at top-level +/- into (sign, token-slice) pieces."""
    pieces = []
    depth = 0
    sign = 1
    start = 0
    i = 0
    body = tokens[:-1]  # drop end sentinel
    while i < len(body):
        token = body[i]
        if token.text == "(":
            depth += 1
        elif token.text == ")":
            depth -= 1
        elif depth == 0 and token.text in ("+", "-") and i == start:
            # leading sign of the current piece
            if token.text == "-":
                sign = -sign
            start = i + 1
        elif depth == 0 and token.text in ("+", "-"):
            pieces.append((sign, body[start:i]))
            sign = 1 if token.text == "+" else -1
            start = i + 1
        i += 1
    pieces.append((sign, body[start:]))
    return pieces


def parse_tensor(
    text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None
):
    """Parse a polynomial, form or multivector expression.

    The result kind is inferred from the presence of ``d(...)`` or ``e(...)``
    atoms; with no atoms the result is a :class:`Polynomial`.
    """
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise _error(text, 0, "empty expression")
    has_atoms = any(_atom_at(tokens, i) for i in range(len(tokens) - 1))
    if not has_atoms:
        return parse_expr(text, chart, env)

    kind = None
    grade = None
    table: dict[tuple[int, ...], Polynomial] = {}
    for sign, piece in _split_terms(tokens):
        if not piece:
            raise _error(text, len(text), "empty term")
        chain_start = None
        for i in range(len(piece)):
            if i + 1 < len(piece) and _atom_at(piece, i):
                chain_start = i
                break
        if chain_start is None:
            raise _error(text, piece[0].start, "every term must have the same grade")
        # parse the trailing atom chain
        i = chain_start
        atoms = []
        term_kind = piece[i].text
        while i < len(piece):
            token = piece[i]
            if not (token.kind == "name" and token.text in ("d", "e")):
                raise _error(text, token.start, "expected a d(...) or e(...) factor")
            if token.text != term_kind:
                raise _error(text, token.start, "cannot mix d(...) and e(...) factors")
            if i + 3 >= len(piece) + 1 or piece[i + 1].text != "(":
                raise _error(text, token.end, "expected '('")
            name_token = piece[i + 2] if i + 2 < len(piece) else None
            if name_token is None or name_token.kind != "name":
                raise _error(text, piece[i + 1].end, "expected a coordinate name")
            if name_token.text not in chart:
                raise _error(text, name_token.start, f"unknown coordinate {name_token.text!r}")
            if i + 3 >= len(piece) or piece[i + 3].text != ")":
                raise _error(text, name_token.end, "expected ')'")
            atoms.append(chart.index(name_token.text))
            i += 4
            if i < len(piece):
                if piece[i].text != "^":
                    raise _error(text, piece[i].start, "expected '^' between factors")
                i += 1
                if i >= len(piece):
                    raise _error(text, len(text), "dangling '^'")
        # parse the coefficient prefix
        prefix = piece[:chain_start]
        if prefix:
            if prefix[-1].text != "*":
                raise _error(
                    text, prefix[-1].start, "coefficient must be joined to the factors by '*'"
                )
            prefix = prefix[:-1]
        if prefix:
            coeff_text = text[prefix[0].start:prefix[-1].end]
            coefficient = parse_expr(coeff_text, chart, env)
        else:
            coefficient = Polynomial.constant(chart, 1)
        if sign < 0:
            coefficient = -coefficient

        if kind is None:
            kind = term_kind
        elif kind != term_kind:
            raise _error(text, piece[chain_start].start, "cannot mix d(...) and e(...) terms")
        if grade is None:
            grade = len(atoms)
        elif grade != len(atoms):
            raise _error(text, piece[chain_start].start, "every term must have the same grade")

        key, parity = _normalize_index_tuple(atoms)
        if key is None or coefficient.is_zero():
            continue
        _accumulate(table, key, coefficient if parity == 1 else -coefficient)

    cls = Form if kind == "d" else Multivector
    result = cls(chart, grade)
    result.terms = table
    return result


def _matching_paren(text: str, start: int) -> int:
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise _error(text, start, "unbalanced '('")


def parse_value(text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None):
    """Parse any printable result value.

    Returns a ``bool`` for ``true``/``false``, the strings ``"pass"``/
    ``"fail"`` for suite outcomes, a :class:`RationalExpr` for
    ``(num) / (den)``, and otherwise whatever :func:`parse_tensor` yields.
    """
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("pass", "fail"):
        return lowered
    if stripped.startswith("("):
        close = _matching_paren(stripped, 0)
        rest = stripped[close + 1:].lstrip()
        if rest.startswith("/"):
            denom_text = rest[1:].strip()
            if not (denom_text.startswith("(") and _matching_paren(denom_text, 0) == len(denom_text) - 1):
                raise _error(text, 0, "expected '(numerator) / (denominator)'")
            numerator = parse_expr(stripped[1:close], chart, env)
            denominator = parse_expr(denom_text[1:-1], chart, env)
            if denominator.is_zero():
                raise _error(text, 0, "zero denominator")
            return RationalExpr(numerator, denominator)
    return parse_tensor(stripped, chart, env)
