"""Textual syntax for polynomials, forms, multivectors and result values.

One regex scan and one recursive-descent grammar (ASCII) read every value::

    value   :=  '(' expr ')' '/' '(' expr ')'  |  expr
    expr    :=  term (('+' | '-') term)*
    term    :=  signed ('*' signed)*
    signed  :=  '-'* (literal | chain | power)
    literal :=  (INT ('/' INT)?  |  COORD) ('^' INT)?
    chain   :=  factor ('^' factor)*
    factor  :=  ('d' | 'e') '(' COORD ')'
    power   :=  atom ('^' INT)?
    atom    :=  IDENT  |  '(' expr ')'

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
last token.

One loop, :meth:`_ExprParser.term`, reads every literal, wherever it
stands.  While a term's factors are literals, each after any unary minuses,
they fold into one coefficient, one ``{coordinate index: exponent}`` record
and one running total degree, with no polynomial per factor.  From the first
other factor (parentheses, an environment name, ``d(``/``e(``) on, the term
is a polynomial, and each later factor is multiplied into it, a literal as
its own monomial.  An expression's monomial terms become one polynomial
through ``poly._monomial_sum``, the parser's one entry to the packed
layout; its other terms are summed once, in one table, by
``sum_of_products``, so a sum is read in linear time.  A wedge chain is one
index list, signed once into increasing order, and a tensor term is one key
and its coefficient: the chain takes the polynomial read before its ``*``,
negated by the chain's sign, with no constant-1 tensor and no product of a
tensor by a polynomial.
:func:`parse_expr` accepts polynomials only, and :func:`parse_value` also
reads the printed ``(num) / (den)`` as a :class:`RationalExpr` and the
literals ``true``, ``false``, ``pass``, ``fail``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction

from .chart import Chart
from .errors import DegreeOverflow, ParseError, checked
from .exterior import Form, Multivector, _normalize_index_tuple, _summed
from .poly import Polynomial, RationalExpr, _check_degree, _monomial_sum, sum_of_products

# Each nesting level costs the recursive-descent parser four stack frames.
MAX_NESTING = 100
# Caps powers that cost work, of a multi-term base (C(k+n, n) terms) or a coefficient c (c**k).
MAX_EXPONENT = 1000

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.)"
)


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseError(message, line, column)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Every token but whitespace as a ``(kind, text, start)`` tuple, the
    last one of kind ``end``."""
    tokens = [(match.lastgroup, match.group(), match.start())
              for match in _TOKEN_RE.finditer(text) if match.lastgroup != "ws"]
    for kind, token_text, start in tokens:
        if kind == "bad":
            raise _error(text, start, f"unexpected character {token_text!r}")
    return tokens


def _literal(text: str) -> int | None:
    """The value of an integer token, or ``None`` for more digits than int() converts."""
    try:
        return int(text)
    except ValueError:
        return None


class _ExprParser:
    def __init__(self, text: str, chart: Chart, env: Mapping[str, Polynomial] | None):
        self.text = checked(text, str, "parsed text")
        self.chart = checked(chart, Chart, "parse chart")
        self.env = checked(env or {}, Mapping, "parse environment")
        self.tokens = _tokenize(text)
        self.positions = {name: i for i, name in enumerate(chart.names)}
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, token: tuple, message: str):
        raise _error(self.text, token[2], message)

    def parse(self, rule):
        try:
            value = rule(self)
        except DegreeOverflow as exc:
            # raised by the factor, product or power whose last token was just read
            raise _error(self.text, self.tokens[self.pos - 1][2], str(exc)) from exc
        token = self.peek()
        if token[0] != "end":
            self.fail(token, f"unexpected token {token[1]!r}")
        return value

    def value(self):
        if self.peek()[1] == "(":
            start = self.pos
            numerator = self.atom()
            if self.peek()[1] == "/":
                self.advance()
                token = self.peek()
                if token[1] != "(":
                    self.fail(token, "expected '(' after '/'")
                denominator = self.atom()
                if denominator.is_zero():
                    self.fail(token, "zero denominator")
                return RationalExpr(numerator, denominator)
            self.pos = start  # it was the first atom of an expression: read it again
        return self.expr()

    def expr(self):
        monomials, terms = [], []
        shape = None
        negate = False
        while True:
            start = self.peek()
            term = self.term()
            if type(term) is tuple:
                coefficient, exponents = term
                monomials.append((-coefficient if negate else coefficient, exponents))
                kind = (Polynomial, 0)
            else:
                terms.append((term, negate))
                kind = (type(term), getattr(term, "grade", 0))
            if shape is None:
                shape = kind
            elif kind != shape:
                self.fail(start, "every term must have the same kind and grade")
            if self.peek()[1] not in ("+", "-"):
                break
            negate = self.advance()[1] == "-"
        if not terms:
            return _monomial_sum(self.chart, monomials)
        if not monomials and len(terms) == 1:
            return terms[0][0]
        one = Polynomial.constant(self.chart, 1)
        if shape[0] is not Polynomial:
            first = terms[0][0]
            groups: dict = {}
            for term, negate in terms:
                for key, coefficient in term.terms.items():
                    groups.setdefault(key, []).append((coefficient, one, negate))
            return first._of(self.chart, first.grade, _summed(groups, self.chart))
        value = sum_of_products([(term, one, negate) for term, negate in terms], self.chart)
        return _monomial_sum(self.chart, monomials, value) if monomials else value

    def term(self):
        """``signed ('*' signed)*``, the parser's one reader of literals: a
        monomial ``(coefficient, {index: exponent})`` while every factor is a
        literal, its total degree checked after each coordinate as a product
        would check it (only the coordinate's own exponent once the
        coefficient is zero).  The first other factor makes it a polynomial,
        the monomial read so far times that factor (or the factor, negated by
        its minuses, if nothing was read), and each later factor is multiplied
        in, a literal as its own monomial; a wedge chain takes that polynomial
        as its coefficient and ends the term."""
        tokens, positions = self.tokens, self.positions
        pos = self.pos
        coefficient, exponents, degree = 1, {}, 0
        read, value = False, None
        while True:
            kind, text, _ = tokens[pos]
            while text == "-":
                coefficient = -coefficient
                pos += 1
                kind, text, _ = tokens[pos]
            follow = tokens[pos + 1][1] if kind != "end" else ""
            if kind == "int":
                c = _literal(text)
                if c is None:
                    self.fail(tokens[pos], "integer literal too long")
                if follow == "/":
                    token = tokens[pos + 2]
                    if token[0] != "int":
                        self.fail(token, "expected an integer denominator")
                    if not (denominator := self.integer(token)):
                        self.fail(token, "zero denominator in rational literal")
                    c = Fraction(c, denominator)
                    pos += 2
                    follow = tokens[pos + 1][1]
                pos += 1
                if follow == "^":
                    c **= self.exponent(pos + 1, abs(c) not in (0, 1))
                    pos += 2
                coefficient *= c
                read = True
            elif kind == "name" and text in positions and not (follow == "(" and text in ("d", "e")):
                exponent = 1
                if follow == "^":
                    kind, literal, _ = tokens[pos + 2]
                    exponent = _literal(literal) if kind == "int" else None
                    if exponent is None:
                        self.exponent(pos + 2, False)  # raises the exponent's error
                    pos += 2
                self.pos = pos = pos + 1  # an overflow is reported at this factor's last token
                index = positions[text]
                exponents[index] = exponents.get(index, 0) + exponent
                degree = _check_degree(degree + exponent if coefficient else exponent)
                read = True
            elif text in ("d", "e") and follow == "(":
                self.pos = pos
                if value is None:
                    value = (_monomial_sum(self.chart, [(coefficient, exponents)]) if read
                             else Polynomial.constant(self.chart, coefficient))
                elif coefficient == -1:
                    value = -value
                value = self.chain(value)
                if self.peek()[1] == "*":
                    self.fail(self.peek(), "a coefficient must come before its d(...) or e(...) factors")
                return value
            else:
                self.pos = pos
                factor = self.power()
                pos = self.pos
                if read:
                    factor = _monomial_sum(self.chart, [(coefficient, exponents)]) * factor
                elif coefficient == -1:
                    factor = -factor
                value = factor if value is None else value * factor
                coefficient, exponents, degree, read = 1, {}, 0, False
            if value is not None and read:
                self.pos = pos
                value = value * _monomial_sum(self.chart, [(coefficient, exponents)])
                coefficient, exponents, degree, read = 1, {}, 0, False
            if tokens[pos][1] != "*":
                self.pos = pos
                return (coefficient, exponents) if value is None else value
            pos += 1

    def power(self):
        """``atom ('^' INT)?``: a parenthesized expression or an environment
        value, raised to at most :data:`MAX_EXPONENT` unless it is 0 or a
        ``+-1`` monomial."""
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        capped = base.term_count() > 1 or any(abs(c) != 1 for _, c in base.items())
        self.pos += 2
        return base ** self.exponent(self.pos - 1, capped)

    def exponent(self, pos: int, capped: bool) -> int:
        """The value of the exponent token at ``pos``, at most
        :data:`MAX_EXPONENT` if ``capped``, where the power costs work."""
        token = self.tokens[pos]
        if token[0] != "int":
            self.fail(token, "exponent must be a nonnegative integer")
        exponent = self.integer(token)
        if capped and exponent > MAX_EXPONENT:
            self.fail(token, f"exponent larger than {MAX_EXPONENT}")
        return exponent

    def chain(self, coefficient: Polynomial):
        """``factor ('^' factor)*``: the factors' coordinate indices in one
        list, signed once into increasing order, as one tensor of one term
        whose coefficient is ``coefficient``, negated by that sign."""
        atom, index = self.factor()
        indices = [index]
        while self.peek()[1] == "^":
            self.advance()
            token = self.peek()
            if token[0] == "int" and len(indices) == 1:
                self.fail(token, "d(...) and e(...) factors take no powers")
            if not (token[1] in ("d", "e") and self.tokens[self.pos + 1][1] == "("):
                self.fail(token, "expected a d(...) or e(...) factor")
            kind, index = self.factor()
            if kind != atom:
                self.fail(token, "cannot mix d(...) and e(...) factors")
            if len(indices) == self.chart.dim:
                self.fail(token, "more factors than chart coordinates")
            indices.append(index)
        key, sign = _normalize_index_tuple(indices, self.chart.dim)
        terms = {} if key is None or coefficient.is_zero() else {key: coefficient if sign == 1 else -coefficient}
        return (Form if atom == "d" else Multivector)._of(self.chart, len(indices), terms)

    def integer(self, token: tuple) -> int:
        value = _literal(token[1])
        if value is None:
            self.fail(token, "integer literal too long")
        return value

    def atom(self):
        token = self.advance()
        kind, text, _ = token
        if kind == "name":
            value = self.env.get(text)
            if value is not None:
                return checked(value, Polynomial, f"environment value {text!r}", chart=self.chart)
            self.fail(token, f"unknown identifier {text!r}")
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(token, f"parentheses nested deeper than {MAX_NESTING}")
            value = self.expr()
            if not isinstance(value, Polynomial):
                self.fail(token, "d(...) and e(...) factors cannot sit inside parentheses")
            self.depth -= 1
            closing = self.advance()
            if closing[1] != ")":
                self.fail(closing, "expected ')'")
            return value
        if kind == "end":
            self.fail(token, "unexpected end of input")
        self.fail(token, f"unexpected token {text!r}")

    def factor(self) -> tuple[str, int]:
        """``d(x)`` or ``e(x)``: its letter and the coordinate index of ``x``."""
        atom = self.advance()
        self.advance()  # '('
        name = self.advance()
        if name[0] != "name":
            self.fail(name, "expected a coordinate name")
        if name[1] not in self.positions:
            self.fail(name, f"unknown coordinate {name[1]!r}")
        closing = self.advance()
        if closing[1] != ")":
            self.fail(closing, "expected ')'")
        return atom[1], self.positions[name[1]]


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
