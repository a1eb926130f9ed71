"""Textual syntax for polynomials, forms, multivectors and result values.

One regex scan and one recursive-descent grammar (ASCII) read every value::

    value   :=  '(' expr ')' '/' '(' expr ')'  |  expr
    expr    :=  term (('+' | '-') term)*
    term    :=  unary ('*' unary)*
    unary   :=  '-'* power
    power   :=  atom ('^' INT)?  |  factor ('^' factor)*
    atom    :=  INT ('/' INT)?  |  IDENT  |  factor  |  '(' expr ')'
    factor  :=  ('d' | 'e') '(' COORD ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``, which
binds tighter than ``+``/``-``; whitespace is insignificant.  Identifiers
resolve to chart coordinates first, then to an optional environment of
polynomials on that chart.  ``d(x)`` is a coordinate differential, ``e(x)`` a
coordinate vector field, and ``^`` between them is the wedge::

    q1^2 * d(q1)^d(p1) + 3/2 * d(q2)^d(p2)       (a 2-form)
    q2 * e(q1) - e(p1)                           (a vector field)

A term's polynomial coefficient comes first, joined to its factors by ``*``;
a form or multivector cannot be followed by ``*``, sit inside parentheses or
take a power, and all terms of an expression share one kind and grade.
Parentheses nest at most :data:`MAX_NESTING` deep, and exponents on all but a
``+-1`` monomial are at most :data:`MAX_EXPONENT`; a product or power whose
total degree would overflow the kernel's exponent field is an error at its
last token.  An expression's terms are summed once, in one table, in linear time.
:func:`parse_expr` accepts polynomials only, and :func:`parse_value` also
reads the printed ``(num) / (den)`` as a :class:`RationalExpr` and the
literals ``true``, ``false``, ``pass``, ``fail``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .chart import Chart
from .errors import DegreeOverflow, ParseError, checked
from .exterior import _summed, coordinate_field, coordinate_form, wedge
from .poly import Polynomial, RationalExpr, sum_of_products

# Each nesting level costs the recursive-descent parser five stack frames.
MAX_NESTING = 100
# Caps powers that cost work, of a multi-term base (C(k+n, n) terms) or a coefficient c (c**k).
MAX_EXPONENT = 1000

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.)"
)
_Token = namedtuple("_Token", "kind text start")


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseError(message, line, column)


def _tokenize(text: str) -> list[_Token]:
    tokens = [_Token(match.lastgroup, match.group(), match.start())
              for match in _TOKEN_RE.finditer(text) if match.lastgroup != "ws"]
    for token in tokens:
        if token.kind == "bad":
            raise _error(text, token.start, f"unexpected character {token.text!r}")
    return tokens


class _ExprParser:
    def __init__(self, text: str, chart: Chart, env: Mapping[str, Polynomial] | None):
        self.text = checked(text, str, "parsed text")
        self.chart = checked(chart, Chart, "parse chart")
        self.env = checked(env or {}, Mapping, "parse environment")
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

    def parse(self, rule):
        try:
            value = rule(self)
        except DegreeOverflow as exc:
            # raised by the product or power whose last token was just read
            raise _error(self.text, self.tokens[self.pos - 1].start, str(exc)) from exc
        token = self.peek()
        if token.kind != "end":
            self.fail(token, f"unexpected token {token.text!r}")
        return value

    def value(self):
        if self.peek().text == "(":
            start = self.pos
            numerator = self.atom()
            if self.peek().text == "/":
                self.advance()
                token = self.peek()
                if token.text != "(":
                    self.fail(token, "expected '(' after '/'")
                denominator = self.atom()
                if denominator.is_zero():
                    self.fail(token, "zero denominator")
                return RationalExpr(numerator, denominator)
            self.pos = start  # it was the first atom of an expression: read it again
        return self.expr()

    def expr(self):
        first = self.term()
        terms = [(first, False)]
        while self.peek().text in ("+", "-"):
            negate = self.advance().text == "-"
            start = self.peek()
            term = self.term()
            if type(term) is not type(first) or getattr(term, "grade", 0) != getattr(first, "grade", 0):
                self.fail(start, "every term must have the same kind and grade")
            terms.append((term, negate))
        if len(terms) == 1:
            return first
        one = Polynomial.constant(self.chart, 1)
        if isinstance(first, Polynomial):
            return sum_of_products([(term, one, negate) for term, negate in terms], self.chart)
        groups: dict = {}
        for term, negate in terms:
            for key, coefficient in term.terms.items():
                groups.setdefault(key, []).append((coefficient, one, negate))
        return first._of(self.chart, first.grade, _summed(groups, self.chart))

    def term(self):
        value = self.unary()
        while self.peek().text == "*":
            if not isinstance(value, Polynomial):
                self.fail(self.peek(), "a coefficient must come before its d(...) or e(...) factors")
            self.advance()
            value = value * self.unary()
        return value

    def unary(self):
        negate = False
        while self.peek().text == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self):
        base = self.atom()
        if self.peek().text != "^":
            return base
        self.advance()
        token = self.peek()
        if isinstance(base, Polynomial):
            if token.kind != "int":
                self.fail(token, "exponent must be a nonnegative integer")
            exponent = self.integer(self.advance())
            if exponent > MAX_EXPONENT and (base.term_count() > 1 or any(abs(c) != 1 for _, c in base.items())):
                self.fail(token, f"exponent larger than {MAX_EXPONENT}")
            return base ** exponent
        if token.kind == "int":
            self.fail(token, "d(...) and e(...) factors take no powers")
        while True:
            if not self.at_factor():
                self.fail(token, "expected a d(...) or e(...) factor")
            factor = self.atom()
            if type(factor) is not type(base):
                self.fail(token, "cannot mix d(...) and e(...) factors")
            if base.grade == self.chart.dim:
                self.fail(token, "more factors than chart coordinates")
            base = wedge(base, factor)
            if self.peek().text != "^":
                return base
            self.advance()
            token = self.peek()

    def at_factor(self) -> bool:
        token = self.peek()
        return token.text in ("d", "e") and self.tokens[self.pos + 1].text == "("

    def integer(self, token: _Token) -> int:
        try:
            return int(token.text)
        except ValueError:  # more digits than int() converts
            self.fail(token, "integer literal too long")

    def atom(self):
        if self.at_factor():
            return self.factor()
        token = self.advance()
        if token.kind == "int":
            numerator = self.integer(token)
            if self.peek().text == "/":
                self.advance()
                denom_token = self.peek()
                if denom_token.kind != "int":
                    self.fail(denom_token, "expected an integer denominator")
                denominator = self.integer(self.advance())
                if denominator == 0:
                    self.fail(denom_token, "zero denominator in rational literal")
                return Polynomial.constant(self.chart, Fraction(numerator, denominator))
            return Polynomial.constant(self.chart, numerator)
        if token.kind == "name":
            if token.text in self.chart:
                return Polynomial.variable(self.chart, token.text)
            value = self.env.get(token.text)
            if value is not None:
                return checked(value, Polynomial, f"environment value {token.text!r}", chart=self.chart)
            self.fail(token, f"unknown identifier {token.text!r}")
        if token.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(token, f"parentheses nested deeper than {MAX_NESTING}")
            value = self.expr()
            if not isinstance(value, Polynomial):
                self.fail(token, "d(...) and e(...) factors cannot sit inside parentheses")
            self.depth -= 1
            closing = self.advance()
            if closing.text != ")":
                self.fail(closing, "expected ')'")
            return value
        if token.kind == "end":
            self.fail(token, "unexpected end of input")
        self.fail(token, f"unexpected token {token.text!r}")

    def factor(self):
        atom = self.advance()
        self.advance()  # '('
        name = self.advance()
        if name.kind != "name":
            self.fail(name, "expected a coordinate name")
        if name.text not in self.chart:
            self.fail(name, f"unknown coordinate {name.text!r}")
        closing = self.advance()
        if closing.text != ")":
            self.fail(closing, "expected ')'")
        make = coordinate_form if atom.text == "d" else coordinate_field
        return make(self.chart, name.text)


def parse_expr(text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None) -> Polynomial:
    """Parse a polynomial expression against a chart (and optional named env)."""
    value = _ExprParser(text, chart, env).parse(_ExprParser.expr)
    if not isinstance(value, Polynomial):
        raise _error(text, 0, f"expected a polynomial, got a {type(value).__name__.lower()}")
    return value


def parse_tensor(text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None):
    """Parse a polynomial, form or multivector expression.

    The result kind follows from the ``d(...)`` or ``e(...)`` factors; with
    none the result is a :class:`Polynomial`.
    """
    return _ExprParser(text, chart, env).parse(_ExprParser.expr)


def parse_value(text: str, chart: Chart, env: Mapping[str, Polynomial] | None = None):
    """Parse any printable result value.

    Returns a ``bool`` for ``true``/``false``, the strings ``"pass"``/
    ``"fail"`` for suite outcomes, a :class:`RationalExpr` for
    ``(num) / (den)``, and otherwise whatever :func:`parse_tensor` yields.
    """
    parser = _ExprParser(text, chart, env)  # checks the arguments, as for every parse_* function
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("pass", "fail"):
        return lowered
    return parser.parse(_ExprParser.value)
