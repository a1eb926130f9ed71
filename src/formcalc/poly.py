"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are the coefficient ring for every tensor in this package.  A
polynomial lives on a :class:`~formcalc.chart.Chart` and is stored sparsely as
a map from exponent vectors to nonzero ``Fraction`` coefficients::

    q1^2 - 3/2*p1   on chart (q1, p1)   ->   {(2, 0): 1, (0, 1): -3/2}

The zero polynomial has an empty term map, and two polynomials are equal
exactly when their term maps are equal.  All arithmetic is exact; nothing in
this module (or anywhere else in the package) touches floating point.

Besides :class:`Polynomial` this module provides

* :class:`RationalExpr` -- an *unreduced* quotient of two polynomials.
  Equality is decided by cross-multiplication, never by computing a
  multivariate GCD.
* :class:`ExpPoly` -- a polynomial extended by integer powers of a formal
  exponential in one distinguished coordinate, used by the Jacobi-bracket
  homogenization check.
* exact division, and :func:`matrix_determinant` / :func:`matrix_adjugate`
  over the polynomial ring.  They pick their algorithm from the entries: a
  matrix of constants takes one exact ``Fraction`` Gauss-Jordan pass on
  ``[M | I]``, which yields the determinant and ``adj = det * M^-1``; a
  matrix with a non-constant entry, and the adjugate of a singular constant
  matrix, take a Laplace expansion in which all minors share one memo.
  Elimination wins on dense constant matrices (the inverse of a symplectic
  form) and loses to expansion on sparse polynomial ones (Dirac constraint
  matrices), where its intermediate entries swell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .chart import Chart
from .errors import ChartMismatch, NotDivisible

Exponent = tuple[int, ...]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def _grlex_key(exponent: Exponent):
    # descending graded-lexicographic order, used for printing and division
    return (-sum(exponent), tuple(-e for e in exponent))


def _accumulate(table: dict, key, value):
    """Add ``value`` into ``table[key]``, dropping the key when the sum is zero."""
    acc = table.get(key)
    total = value if acc is None else acc + value
    if total.is_zero():
        table.pop(key, None)
    else:
        table[key] = total


class Polynomial:
    """A sparse polynomial with rational coefficients on a fixed chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Fraction] | None = None):
        table: dict[Exponent, Fraction] = {}
        if terms:
            dim = chart.dim
            for exponent, coefficient in terms.items():
                exponent = tuple(exponent)
                if len(exponent) != dim:
                    raise ValueError("exponent vector length must equal the chart dimension")
                if any(e < 0 for e in exponent):
                    raise ValueError("exponents must be nonnegative")
                c = _coerce(coefficient)
                if c:
                    table[exponent] = c
        self.chart = chart
        self.terms = table

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, value) -> "Polynomial":
        c = _coerce(value)
        if not c:
            return cls(chart)
        return cls(chart, {(0,) * chart.dim: c})

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "Polynomial":
        exponent = [0] * chart.dim
        exponent[chart.index(name)] = 1
        return cls(chart, {tuple(exponent): Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0,) * self.chart.dim}

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not a constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _as_operand(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.chart != self.chart:
                raise ChartMismatch("operands live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.chart, other)
        return None

    def __add__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exponent, coefficient in other.terms.items():
            acc = out.get(exponent)
            total = coefficient if acc is None else acc + coefficient
            if total:
                out[exponent] = total
            else:
                out.pop(exponent, None)
        result = Polynomial.__new__(Polynomial)
        result.chart = self.chart
        result.terms = out
        return result

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        result = Polynomial.__new__(Polynomial)
        result.chart = self.chart
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = _coerce(other)
            result = Polynomial.__new__(Polynomial)
            result.chart = self.chart
            result.terms = {e: c * factor for e, c in self.terms.items()} if factor else {}
            return result
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exponent = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(exponent)
                total = ca * cb if acc is None else acc + ca * cb
                if total:
                    out[exponent] = total
                else:
                    out.pop(exponent, None)
        result = Polynomial.__new__(Polynomial)
        result.chart = self.chart
        result.terms = out
        return result

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = _coerce(other)
            if not factor:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / factor)
        return NotImplemented

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.chart, 1)
        for _ in range(power):
            result = result * self
        return result

    def diff(self, coordinate: int) -> "Polynomial":
        """Formal partial derivative with respect to coordinate ``coordinate``."""
        if not 0 <= coordinate < self.chart.dim:
            raise ValueError("coordinate index out of range")
        out: dict[Exponent, Fraction] = {}
        for exponent, coefficient in self.terms.items():
            e = exponent[coordinate]
            if e:
                lowered = exponent[:coordinate] + (e - 1,) + exponent[coordinate + 1:]
                acc = out.get(lowered)
                total = coefficient * e if acc is None else acc + coefficient * e
                if total:
                    out[lowered] = total
                else:
                    out.pop(lowered, None)
        result = Polynomial.__new__(Polynomial)
        result.chart = self.chart
        result.terms = out
        return result

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.chart, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.chart.names
        pieces = []
        for exponent in sorted(self.terms, key=_grlex_key):
            coefficient = self.terms[exponent]
            monomial = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exponent)
                if e
            )
            magnitude = abs(coefficient)
            if not monomial:
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{magnitude}*{monomial}"
            pieces.append(("-" if coefficient < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({self})"


def coordinates(chart: Chart) -> tuple[Polynomial, ...]:
    """The chart coordinates as degree-one polynomials, in chart order."""
    return tuple(Polynomial.variable(chart, name) for name in chart.names)


def exact_divide(a: Polynomial, b: Polynomial) -> Polynomial:
    """Return ``q`` with ``q * b == a``; raise :class:`NotDivisible` otherwise."""
    if a.chart != b.chart:
        raise ChartMismatch("operands live on different charts")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return Polynomial.zero(a.chart)

    def lead(terms):
        return min(terms, key=_grlex_key)

    lead_b = lead(b.terms)
    coeff_b = b.terms[lead_b]
    remainder = dict(a.terms)
    quotient: dict[Exponent, Fraction] = {}
    while remainder:
        lead_r = lead(remainder)
        shift = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in shift):
            raise NotDivisible("polynomials do not divide exactly")
        factor = remainder[lead_r] / coeff_b
        quotient[shift] = factor
        for eb, cb in b.terms.items():
            exponent = tuple(x + y for x, y in zip(shift, eb))
            acc = remainder.get(exponent, Fraction(0)) - factor * cb
            if acc:
                remainder[exponent] = acc
            else:
                remainder.pop(exponent, None)
    return Polynomial(a.chart, quotient)


class RationalExpr:
    """An unreduced quotient of two polynomials.

    No multivariate GCD is ever computed: equality is decided by
    cross-multiplication, ``n1*d2 == n2*d1``.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if numerator.chart != denominator.chart:
            raise ChartMismatch("numerator and denominator live on different charts")
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalExpr":
        return cls(p, Polynomial.constant(p.chart, 1))

    @property
    def chart(self) -> Chart:
        return self.numerator.chart

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def _as_operand(self, other) -> "RationalExpr | None":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, Polynomial):
            return RationalExpr.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return RationalExpr.from_polynomial(Polynomial.constant(self.chart, other))
        return None

    def __eq__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __add__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return RationalExpr(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RationalExpr(-self.numerator, self.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalExpr(self.numerator * other, self.denominator)
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return RationalExpr(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        if other.numerator.is_zero():
            raise ZeroDivisionError("division by a zero rational expression")
        return RationalExpr(self.numerator * other.denominator, self.denominator * other.numerator)

    def as_polynomial(self) -> Polynomial:
        """The exact polynomial value; raises :class:`NotDivisible` if there is none."""
        return exact_divide(self.numerator, self.denominator)

    def as_constant(self) -> Fraction:
        """The value as a rational constant; raises if it is not one."""
        if self.numerator.is_zero():
            return Fraction(0)
        quotient = self.as_polynomial()
        return quotient.constant_value()

    def __str__(self):
        if self.denominator.is_constant():
            d = self.denominator.constant_value()
            if d == 1:
                return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self):
        return f"RationalExpr({self.numerator!r}, {self.denominator!r})"


class ExpPoly:
    """A polynomial extended by integer powers of ``exp(s)`` in one coordinate.

    Stored as a map from the integer exponential weight ``w`` to the
    polynomial coefficient of ``exp(w*s)``; weight zero embeds plain
    polynomials.  The distinguished coordinate ``s`` is fixed by its chart
    index.  Differentiation follows ``d/ds (exp(w*s) * p) =
    exp(w*s) * (w*p + dp/ds)``.
    """

    __slots__ = ("chart", "s_index", "terms")

    def __init__(self, chart: Chart, s_index: int, terms: Mapping[int, Polynomial] | None = None):
        if not 0 <= s_index < chart.dim:
            raise ValueError("distinguished coordinate index out of range")
        table: dict[int, Polynomial] = {}
        if terms:
            for weight, coefficient in terms.items():
                if not isinstance(weight, int):
                    raise TypeError("exponential weights must be integers")
                if coefficient.chart != chart:
                    raise ChartMismatch("coefficient lives on a different chart")
                if not coefficient.is_zero():
                    table[weight] = coefficient
        self.chart = chart
        self.s_index = s_index
        self.terms = table

    @classmethod
    def from_polynomial(cls, p: Polynomial, s_index: int, weight: int = 0) -> "ExpPoly":
        return cls(p.chart, s_index, {weight: p})

    @classmethod
    def exponential(cls, chart: Chart, s_index: int, weight: int) -> "ExpPoly":
        return cls(chart, s_index, {weight: Polynomial.constant(chart, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ExpPoly"):
        if not isinstance(other, ExpPoly):
            raise TypeError("expected an ExpPoly")
        if other.chart != self.chart or other.s_index != self.s_index:
            raise ChartMismatch("operands disagree on chart or distinguished coordinate")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for weight, coefficient in other.terms.items():
            _accumulate(out, weight, coefficient)
        return ExpPoly(self.chart, self.s_index, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExpPoly(self.chart, self.s_index, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = ExpPoly.from_polynomial(
                other if isinstance(other, Polynomial) else Polynomial.constant(self.chart, other),
                self.s_index,
            )
        self._check(other)
        out: dict[int, Polynomial] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _accumulate(out, wa + wb, ca * cb)
        return ExpPoly(self.chart, self.s_index, out)

    __rmul__ = __mul__

    def diff(self, coordinate: int) -> "ExpPoly":
        out: dict[int, Polynomial] = {}
        for weight, coefficient in self.terms.items():
            value = coefficient.diff(coordinate)
            if coordinate == self.s_index:
                value = coefficient * weight + value
            _accumulate(out, weight, value)
        return ExpPoly(self.chart, self.s_index, out)

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.s_index == other.s_index
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        s = self.chart.names[self.s_index]
        parts = []
        for weight in sorted(self.terms):
            head = f"exp({weight}*{s})" if weight else ""
            body = f"({self.terms[weight]})"
            parts.append(f"{head}*{body}" if head else body)
        return " + ".join(parts)

    def __repr__(self):
        return f"ExpPoly({self})"


def _check_square(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> int:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if entry.chart != chart:
                raise ChartMismatch("matrix entry lives on a different chart")
    return n


def _constant_values(rows: Sequence[Sequence[Polynomial]]) -> list[list[Fraction]] | None:
    """The entries as ``Fraction`` values, or ``None`` if one is not constant."""
    if not all(entry.is_constant() for row in rows for entry in row):
        return None
    return [[entry.constant_value() for entry in row] for row in rows]


def _eliminate(values: list[list[Fraction]]) -> tuple[Fraction, list[list[Fraction]] | None]:
    """``(det, inverse)`` by one Gauss-Jordan pass on ``[M | I]`` with row
    pivoting; the inverse is ``None`` when ``det`` is zero."""
    m = len(values)
    rows = [row + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(values)]
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col][col]
        det *= lead
        pivot_row = [x / lead for x in rows[col]]
        rows[col] = pivot_row
        for r in range(m):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], pivot_row)]
    return det, [row[m:] for row in rows]


def _minor_table(rows: Sequence[Sequence[Polynomial]], chart: Chart):
    """``minor(row_tuple, col_tuple)``: the determinant of that submatrix by
    Laplace expansion along its first row, with one memo for every minor."""
    one = Polynomial.constant(chart, 1)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def minor(rs: tuple[int, ...], cs: tuple[int, ...]) -> Polynomial:
        if not rs:
            return one
        key = (rs, cs)
        cached = memo.get(key)
        if cached is not None:
            return cached
        row, below = rows[rs[0]], rs[1:]
        total = Polynomial.zero(chart)
        for j, col in enumerate(cs):
            entry = row[col]
            if entry.is_zero():
                continue
            term = entry * minor(below, cs[:j] + cs[j + 1:])
            total = total + term if j % 2 == 0 else total - term
        memo[key] = total
        return total

    return minor


def matrix_determinant(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> Polynomial:
    """Determinant of a square matrix of polynomials on ``chart``.

    A matrix of constants is reduced by exact ``Fraction`` elimination;
    otherwise the determinant is a memoized Laplace expansion, which beats
    elimination on sparse polynomial entries.  A singular constant matrix
    needs no fallback here: elimination runs out of pivots and returns zero
    (only :func:`matrix_adjugate` falls back to expansion for it).  Raises
    ``ValueError`` for a non-square matrix and :class:`ChartMismatch` for an
    entry on another chart.
    """
    n = _check_square(rows, chart)
    values = _constant_values(rows)
    if values is not None:
        return Polynomial.constant(chart, _eliminate(values)[0])
    everything = tuple(range(n))
    return _minor_table(rows, chart)(everything, everything)


def matrix_adjugate(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> list[list[Polynomial]]:
    """Classical adjugate: ``adjugate(M) @ M == det(M) * I`` over the polynomial ring.

    A nonsingular constant matrix gives ``det * inverse`` from one exact
    ``Fraction`` elimination.  Every other matrix -- polynomial entries, or a
    singular constant one, which has no inverse -- takes its ``m^2``
    cofactors from one shared table of Laplace-expanded minors.  Raises as
    :func:`matrix_determinant` does.
    """
    n = _check_square(rows, chart)
    values = _constant_values(rows)
    if values is not None:
        det, inverse = _eliminate(values)
        if inverse is not None:
            return [[Polynomial.constant(chart, det * x) for x in row] for row in inverse]
    minor = _minor_table(rows, chart)
    everything = tuple(range(n))

    def cofactor(i: int, j: int) -> Polynomial:
        value = minor(everything[:i] + everything[i + 1:], everything[:j] + everything[j + 1:])
        return -value if (i + j) % 2 else value

    return [[cofactor(i, j) for i in range(n)] for j in range(n)]
