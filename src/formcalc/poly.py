"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are the coefficient ring for every tensor in this package.  A
polynomial lives on a :class:`~formcalc.chart.Chart` and is a sparse map from
exponent vectors to nonzero rational coefficients::

    q1^2 - 3/2*p1   on chart (q1, p1)   ->   {(2, 0): 1, (0, 1): -3/2}

The zero polynomial has no terms, and two polynomials are equal exactly when
their term maps are equal.  All arithmetic is exact; nothing in this module
(or anywhere else in the package) touches floating point.

Representation (packed monomials, after Monagan & Pearce, "Sparse polynomial
multiplication and division in Maple 14", 2009).  The exponent vector
``(e1, ..., en)`` of total degree ``d`` is stored as one Python int with a
32-bit field per coordinate and the total degree in the field above them::

    key = d << 32n | e1 << 32(n-1) | ... | en

Multiplying two monomials is then one integer ``+``, and ordering keys as
integers is the graded-lexicographic order in which polynomials print and
divide.  A key prints as its high half, the first ``n // 2`` fields, times its
low half.  Keys that share their degree and high half are one run of the
descending order, so printing looks a head text up once per run and, per
term, a tail text and the text of the coefficient with its separator; each
distinct half and coefficient is printed once per ``str`` call (a dense
product has a few hundred halves and a few dozen coefficients), and the
pieces are joined once.  A coefficient is stored as an
``int`` whenever it is integral and as a ``Fraction`` only when it is not.
Each polynomial carries an upper bound on its total degree (the sum of the
factors' bounds for ``*``, their maximum for ``+``, unchanged by ``diff`` and
negation).  A product whose bound reaches ``2**32`` would overflow a field,
so it raises :class:`DegreeOverflow` instead; the bound is checked once per
operation, never per term.  Powers multiply by the base one factor at a
time, except that a one-term base is raised in one step (see
:meth:`Polynomial.__pow__`).

Partial derivatives.  :func:`_partials` builds every nonzero partial in one
pass over a polynomial's keys, each partial keeping the polynomial's degree
bound; :meth:`Polynomial.diff`, ``exterior.differential`` and
``schouten.schouten`` all read it.

Fused sums of products.  Every bracket, pairing and wedge in the package is
a sum of products of coefficients.  :func:`sum_of_products` takes the
products as ``(a, b, negate)`` triples and adds each into one mutable table
of packed keys, which is settled to ints and cleared of zeros once at the
end; no ``Polynomial`` is built per product or per partial sum (Monagan &
Pearce build each result in one accumulator in the same way).  Every
product of two polynomials, ``*`` included, enters there: ``a * b`` is the
one-product sum ``[(a, b, False)]``, and the rule for a lone product with a
one-term factor, its sign included, lives in :func:`sum_of_products` alone.
Two factors whose keys share no bit of the exponent fields cannot collide:
each field adds without a carry, so every term pair has its own key and no
sum cancels.  The first product into an empty table, when neither factor is
one term, is tested for that on two bitwise ORs of its keys, and if it
passes the table is one dict comprehension (:func:`_added`).
Finishing a table is one C-level scan of its value types when it holds no
``Fraction``, by far the common case, and a table with no zero is kept as it
is.  The other callers of the product loop are :func:`merge_walk`, the
wedge of 1-forms along a generator's merge table, and :func:`merge_pairing`,
the same wedge paired with constant target coefficients.  The walk's first
level takes the first form's coefficients as they are, with no product by
the constant 1; each later level adds its products into the packed tables
of the merged tuples, and only the last level's tables are settled and
become polynomials.  A pairing folds its last level into one table instead,
each product's target constant folded into its sign and, when not of
magnitude 1, into its smaller factor, so it builds one polynomial in all.

The packed layout is private to this module.  Other code reads a polynomial
through :meth:`Polynomial.items`, :meth:`~Polynomial.coefficient`,
:meth:`~Polynomial.term_count` and :meth:`~Polynomial.extended_to`;
``terms`` stays available as a read-only map from exponent tuples to
``Fraction`` for inspection.  The parser builds the polynomial of an
expression's monomial terms through :func:`_monomial_sum`, from
``(coefficient, {coordinate index: exponent})`` pairs.

Besides :class:`Polynomial` this module provides

* :class:`RationalExpr` -- an *unreduced* quotient of two polynomials.
  Equality is decided by cross-multiplication, never by computing a
  multivariate GCD.
* exact division, and :func:`matrix_determinant` / :func:`matrix_adjugate`
  for the matrices the package inverts: the form matrix of a symplectic
  2-form and the Dirac constraint bracket matrix, both skew-symmetric of
  even size.  Any other matrix raises :class:`InvalidArgument`.  Inside, a
  skew matrix has one shape, its upper triangle ``{(i, j): entry}``, ``i < j``,
  absent pairs zero, as a 2-form's ``terms`` are.  :func:`_skew_inverse`
  returns ``det`` and ``adj``, and :func:`_negated_inverse` the upper
  triangle of ``-M^-1``, the inverse bivector's coefficients.  All three
  read one algorithm on two rings: a fraction-free Gauss-Jordan sweep over
  2x2 skew pivots (Bunch, Math. Comp. 38, 1982) in ``m/2`` steps on one
  skew tableau ``T``, whose exact divisions are Knuth's identity for
  overlapping Pfaffians (Electron. J. Combin. 3(2), 1996); then ``det =
  p^2/L^m``, ``adj = p*L*T/L^m`` and ``-M^-1 = -L*T/p``.  Constants take
  :func:`_pfaffian_sweep` on integers (``L`` their common denominator),
  any other entries :func:`_polynomial_sweep` (``L = 1``): two loops, as
  a matrix of constants never pays for polynomial arithmetic.  Over
  ``Q[x]`` a constant pivot keeps ``p`` constant, so each division is a
  scalar multiply; picking the pivot by the terms in its two columns, not
  by their nonzero entries, keeps the later pivots constant too, so that
  few steps, if any, divide by a polynomial ``p``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from operator import or_
from typing import Iterator

from .chart import Chart
from .errors import (ChartMismatch, DegreeOverflow, DivisionByZero, InvalidArgument, KindMismatch,
                     NotDivisible, checked)

Exponent = tuple[int, ...]

_BITS = 32
_MASK = (1 << _BITS) - 1
# a total degree at or above this no longer fits one exponent field
DEGREE_CAP = 1 << _BITS


def _pack(exponent: Exponent) -> int:
    key = sum(exponent)
    for e in exponent:
        key = key << _BITS | e
    return key


def _unpack(key: int, dim: int) -> Exponent:
    exponent = [0] * dim
    for i in range(dim - 1, -1, -1):
        exponent[i] = key & _MASK
        key >>= _BITS
    return tuple(exponent)


def _key_of(exponent, dim: int) -> int:
    """The packed key of ``exponent``, which must be ``dim`` nonnegative ints.
    A key of degree :data:`DEGREE_CAP` or more is the key of no term."""
    if len(checked(exponent, Sequence, "exponent vector")) != dim:
        raise InvalidArgument("exponent vector length must equal the chart dimension")
    if not all(isinstance(e, int) and e >= 0 for e in exponent):
        raise InvalidArgument("exponents must be nonnegative integers")
    return _pack(exponent)


def _nonnegative_power(power) -> int:
    """``power``, if it is a nonnegative int: the one check of every power."""
    if not isinstance(power, int) or power < 0:
        raise InvalidArgument("powers must be nonnegative integers")
    return power


def _coefficient(value):
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    return int(checked(value, (int, Fraction), "coefficient"))


def _settle(table: dict):
    """Store the integral ``Fraction`` values of ``table`` as ints, in place;
    one C-level scan of the value types when it holds no ``Fraction``."""
    if Fraction not in map(type, table.values()):
        return
    for key, value in table.items():
        if type(value) is Fraction and value.denominator == 1:
            table[key] = value.numerator


def _finished(table: dict) -> dict:
    """The nonzero entries of ``table``, integral ``Fraction`` values as ints.
    A table with no ``Fraction``, which one C-level scan of the value types
    tells, is returned as it is when it holds no zero and else with its zeros
    dropped, so the caller must own it."""
    values = table.values()
    if Fraction not in map(type, values):
        return table if all(values) else {key: value for key, value in table.items() if value}
    return {key: value.numerator if type(value) is Fraction and value.denominator == 1 else value
            for key, value in table.items() if value}


def _check_degree(degree: int) -> int:
    if degree >= DEGREE_CAP:
        raise DegreeOverflow(f"total degree would reach 2^{_BITS}")
    return degree


def _add_product(out: dict, large: dict, small: dict, negate: bool):
    """Add ``large * small`` (negated if ``negate``) into ``out``: the inner
    loop of :func:`_added` (so of :func:`sum_of_products` and
    :func:`_paired_level`) and of :func:`_walk_level`, its only callers.

    All three are term tables; ``small`` is nonempty and has no more terms
    than ``large``.  Values in ``out`` are left unsettled (zeros and integral
    ``Fraction`` values included) until the caller settles the table.  A
    one-term ``small`` takes one pass, and a coefficient of 1 is added
    without a multiplication.
    """
    get = out.get
    if len(small) == 1:
        (shift, factor), = small.items()
        if negate:
            factor = -factor
        if factor == 1:
            for key, value in large.items():
                key += shift
                out[key] = get(key, 0) + value
        else:
            for key, value in large.items():
                key += shift
                out[key] = get(key, 0) + value * factor
        return
    inner = [(key, -value) for key, value in small.items()] if negate else list(small.items())
    for ka, ca in large.items():
        for kb, cb in inner:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb


def _disjoint_product(large: dict, small: dict, negate: bool) -> dict:
    """``large * small`` (negated if ``negate``) as a new table of one key
    per term pair, for factors that cannot collide (see :func:`_added`).
    Integral ``Fraction`` values are left for the caller to settle."""
    inner = [(key, -value) for key, value in small.items()] if negate else small.items()
    return {ka + kb: ca * cb for ka, ca in large.items() for kb, cb in inner}


def _added(out: dict, large: dict, small: dict, negate: bool, bound: int, fields: int) -> dict:
    """``out`` with ``large * small`` (negated if ``negate``) added by
    :func:`_add_product`.  Into an empty ``out``, when neither factor is one
    term and no bit of the exponent ``fields`` is set in a key of both, every
    field of ``ka + kb`` adds without a carry, so no two term pairs meet and
    none cancels: then the degree ``bound`` is checked and the product is
    built by :func:`_disjoint_product`.  The test is on bits, not
    coordinates: ``q1 + 1`` and ``q1^2 + 1`` pass it, ``q1^3 + 1`` and
    ``q1 + 1`` do not."""
    if out or len(small) == 1 or reduce(or_, small) & reduce(or_, large) & fields:
        _add_product(out, large, small, negate)
        return out
    _check_degree(bound)  # before the table is built
    return _disjoint_product(large, small, negate)


def _make(chart: Chart, terms: dict, degree: int) -> "Polynomial":
    # ``terms`` maps packed keys to nonzero, settled coefficients and is
    # owned by the new polynomial
    p = Polynomial.__new__(Polynomial)
    p.chart = chart
    p._terms = terms
    p._degree = degree
    return p


class _TermView(Mapping):
    """Read-only ``exponent tuple -> Fraction`` view of a polynomial's terms."""

    __slots__ = ("_table", "_dim")

    def __init__(self, table: dict, dim: int):
        self._table = table
        self._dim = dim

    def __getitem__(self, exponent) -> Fraction:
        try:
            key = _key_of(exponent, self._dim)
        except (KindMismatch, InvalidArgument):  # no exponent vector of this chart
            raise KeyError(exponent) from None
        value = self._table.get(key)
        if value is None:
            raise KeyError(exponent)
        return Fraction(value)

    def __iter__(self) -> Iterator[Exponent]:
        dim = self._dim
        return (_unpack(key, dim) for key in self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """A sparse polynomial with rational coefficients on a fixed chart."""

    __slots__ = ("chart", "_terms", "_degree")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Fraction] | None = None):
        checked(chart, Chart, "polynomial chart")
        table: dict[int, int | Fraction] = {}
        degree = 0
        if terms:
            dim = chart.dim
            for exponent, coefficient in checked(terms, Mapping, "polynomial terms").items():
                key = _key_of(exponent, dim)
                c = _coefficient(coefficient)
                if c:
                    degree = max(degree, _check_degree(key >> _BITS * dim))
                    table[key] = c
        self.chart = chart
        self._terms = table
        self._degree = degree

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return _make(checked(chart, Chart, "polynomial chart"), {}, 0)

    @classmethod
    def constant(cls, chart: Chart, value) -> "Polynomial":
        c = _coefficient(value)
        return _make(checked(chart, Chart, "polynomial chart"), {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "Polynomial":
        dim = checked(chart, Chart, "polynomial chart").dim
        key = 1 << _BITS * dim | 1 << _BITS * (dim - 1 - chart.index(name))
        return _make(chart, {key: 1}, 1)

    # -- reading ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The terms as a read-only map from exponent tuples to ``Fraction``."""
        return _TermView(self._terms, self.chart.dim)

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        """``(exponent tuple, coefficient)`` for every term, in no set order."""
        dim = self.chart.dim
        for key, value in self._terms.items():
            yield _unpack(key, dim), Fraction(value)

    def coefficient(self, exponent) -> Fraction:
        """The coefficient of the monomial with this exponent tuple (zero if absent)."""
        return Fraction(self._terms.get(_key_of(exponent, self.chart.dim), 0))

    def term_count(self) -> int:
        return len(self._terms)

    def extended_to(self, chart: Chart) -> "Polynomial":
        """The same polynomial on ``chart``, whose leading coordinates are this
        polynomial's chart and whose further coordinates it does not involve."""
        dim, wider = self.chart.dim, checked(chart, Chart, "target chart").dim
        if chart.names[:dim] != self.chart.names:
            raise ChartMismatch("target chart does not extend this polynomial's chart")
        low = _BITS * dim
        gap = _BITS * (wider - dim)
        mask = (1 << low) - 1
        terms = {(key >> low) << (low + gap) | (key & mask) << gap: value
                 for key, value in self._terms.items()}
        return _make(chart, terms, self._degree)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InvalidArgument("polynomial is not a constant")
        return Fraction(self._terms.get(0, 0))

    # -- arithmetic ---------------------------------------------------------

    def _as_operand(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ChartMismatch("operands live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.chart, other)
        return None

    def _plus(self, items, degree: int) -> "Polynomial":
        """``self`` plus the terms ``items`` of a polynomial of degree bound ``degree``."""
        out = dict(self._terms)
        get = out.get
        for key, value in items:
            acc = get(key)
            if acc is None:
                out[key] = value
                continue
            value += acc
            if not value:
                del out[key]
            elif type(value) is Fraction and value.denominator == 1:
                out[key] = value.numerator
            else:
                out[key] = value
        return _make(self.chart, out, max(self._degree, degree))

    def __add__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        small, large = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        return large._plus(small._terms.items(), small._degree)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return self._plus(((key, -value) for key, value in other._terms.items()), other._degree)

    def __rsub__(self, other):
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.chart, {key: -value for key, value in self._terms.items()}, self._degree)

    def _shifted(self, shift: int, factor) -> "Polynomial":
        """``self`` times the monomial ``factor * x^shift``, ``factor`` nonzero
        and settled, in one pass: a product by a scalar (``shift = 0``), or
        :func:`sum_of_products`'s lone product with a one-term factor."""
        if not shift:
            if factor == 1:
                return self
            terms = {key: value * factor for key, value in self._terms.items()}
        else:
            terms = {key + shift: value * factor for key, value in self._terms.items()}
        if factor != 1 and factor != -1:  # +-1 keeps a non-integral value non-integral
            _settle(terms)
        degree = _check_degree(self._degree + (shift >> _BITS * self.chart.dim))
        return _make(self.chart, terms, degree)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shifted(0, c) if (c := _coefficient(other)) else _make(self.chart, {}, 0)
        other = self._as_operand(other)
        if other is None:
            return NotImplemented
        return sum_of_products(((self, other, False),), self.chart)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero")
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, power: int):
        """``self`` multiplied by itself ``power`` times, one factor at a time.

        Repeated multiplication by the base, not square-and-multiply: on a
        dense multivariate base, squaring spends its time on a few products of
        two large partial powers, and those cost more than the many products
        of a partial power by the small base (Fateman, "On the computation of
        powers of sparse polynomials", 1974).

        A base of at most one term is raised in one step: packing is linear,
        so once the degree check has passed, ``power * key(e)`` is
        ``key(power * e)``, and the coefficient is ``c ** power``.
        """
        _check_degree(self._degree * _nonnegative_power(power))
        if len(self._terms) <= 1:
            if not power:
                return Polynomial.constant(self.chart, 1)
            terms = {key * power: _coefficient(c ** power) for key, c in self._terms.items()}
            return _make(self.chart, terms, self._degree * power)
        result = Polynomial.constant(self.chart, 1)
        for _ in range(power):
            result = result * self
        return result

    def diff(self, coordinate: int) -> "Polynomial":
        """Formal partial derivative with respect to coordinate ``coordinate``,
        read off :func:`_partials`; a zero partial keeps ``self``'s degree
        bound too."""
        if not 0 <= checked(coordinate, int, "coordinate index") < self.chart.dim:
            raise InvalidArgument("coordinate index out of range")
        return _partials(self).get(coordinate) or _make(self.chart, {}, self._degree)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.chart, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self._terms == other._terms

    def __str__(self):
        """The terms in descending graded-lexicographic order (descending
        keys), as ``-3/2*q1^2*p1 + q1 - 1``.  Keys sharing their degree and
        high half form one run of that order, so each run looks its head text
        up once; each term then looks up its tail text and the text of its
        coefficient with the separator before it, and is one string.  Every
        distinct half and coefficient is printed once per call, and the
        pieces are joined once."""
        terms = self._terms
        if not terms:
            return "0"
        names = self.chart.names
        split = len(names) // 2
        low = _BITS * (len(names) - split)
        high_mask, low_mask = (1 << _BITS * split) - 1, (1 << low) - 1
        high_names, low_names = names[:split], names[split:]
        heads: dict[int, str] = {}
        tails: dict[int, str] = {}
        leads: dict[int | Fraction, str] = {}
        pieces = []
        run = -1
        keys = sorted(terms, reverse=True)
        for key in keys:
            if key >> low != run:
                run = key >> low
                head = heads.get(high := run & high_mask)
                if head is None:
                    head = heads[high] = _half_text(high, high_names)
                if head and key & low_mask:  # a key with no low half is alone in its run
                    head += "*"
            tail = tails.get(rest := key & low_mask)
            if tail is None:
                tail = tails[rest] = _half_text(rest, low_names)
            lead = leads.get(c := terms[key])
            if lead is None:
                lead = leads[c] = _lead(c)
            pieces.append(f"{lead}{head}{tail}")
        if not keys[-1]:
            c = terms[0]
            pieces[-1] = f"{_SEPARATORS[c < 0]}{abs(c)}"
        return _signed_text(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def _partials(p: Polynomial) -> dict[int, Polynomial]:
    """``{i: dp/dx_i}`` for every ``i`` whose partial is nonzero, in
    increasing ``i``, from one pass over ``p``'s keys: each key's nonzero
    exponent fields are found from its low bits up, and an ``e`` in field
    ``i`` adds ``e * value`` at the key lowered by one there and in the
    degree.  Every partial keeps ``p``'s degree bound."""
    dim = p.chart.dim
    degree_unit = 1 << _BITS * dim
    tables: dict[int, dict] = {}
    for key, value in p._terms.items():
        fields = key & degree_unit - 1
        while fields:
            shift = (fields & -fields).bit_length() - 1
            shift -= shift % _BITS
            e = fields >> shift & _MASK
            fields ^= e << shift
            c = value * e
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            i = dim - 1 - shift // _BITS
            table = tables.get(i)
            if table is None:
                table = tables[i] = {}
            table[key - degree_unit - (1 << shift)] = c
    chart, degree = p.chart, p._degree
    return {i: _make(chart, tables[i], degree) for i in sorted(tables)}


_SEPARATORS = (" + ", " - ")


def _half_text(fields: int, names: tuple[str, ...]) -> str:
    """The product of ``names`` raised to the exponents in ``fields``, one
    field per name, the last name's lowest: ``q1^2*p1``, ``""`` for none."""
    factors = []
    shift = _BITS * len(names)
    for name in names:
        shift -= _BITS
        e = fields >> shift & _MASK
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def _lead(c) -> str:
    """The separator and the factor printed before a monomial whose
    coefficient is ``c``: ``" - 3/2*"``, or ``" + "`` for 1.  Every printed
    coefficient passes here first, so one past the interpreter's digit limit
    for printing an integer is an :class:`InvalidArgument` here."""
    magnitude = abs(c)
    try:
        return _SEPARATORS[c < 0] if magnitude == 1 else f"{_SEPARATORS[c < 0]}{magnitude}*"
    except ValueError as exc:
        raise InvalidArgument(f"coefficient has more than {sys.get_int_max_str_digits()} digits, the "
                              "interpreter's limit for printing an integer (sys.set_int_max_str_digits)") from exc


def _signed_text(pieces: list[str]) -> str:
    """Pieces that each begin with their separator, ``" + "`` or ``" - "``,
    printed as ``-a + b - c``: the one sign convention of every printed sum."""
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _monomial_sum(chart: Chart, monomials, rest: Polynomial | None = None) -> Polynomial:
    """``rest`` (zero if ``None``) plus the ``(coefficient, exponents)``
    monomials on ``chart``, in one table: the parser's one entry to the
    packed layout.  ``coefficient`` is an int or ``Fraction``, and
    ``exponents`` maps coordinate indices to exponents whose total is below
    :data:`DEGREE_CAP`.  The degree bound is the larger of ``rest``'s and
    the largest total of a monomial with a nonzero coefficient, as
    :func:`sum_of_products` would bound the same sum."""
    dim = chart.dim
    top = _BITS * dim
    out: dict[int, int | Fraction] = {} if rest is None else dict(rest._terms)
    get = out.get
    degree = 0 if rest is None else rest._degree
    for coefficient, exponents in monomials:
        if not coefficient:
            continue
        total = key = 0
        for i, e in exponents.items():
            total += e
            key |= e << _BITS * (dim - 1 - i)
        key |= total << top
        out[key] = get(key, 0) + coefficient
        if total > degree:
            degree = total
    return _make(chart, _finished(out), degree)


def sum_of_products(products: Sequence[tuple[Polynomial, Polynomial, bool]],
                    chart: Chart) -> Polynomial:
    """``sum(-a*b if negate else a*b for a, b, negate in products)`` on
    ``chart``, built in one term table: the one route of every product of two
    polynomials, ``a * b`` included as the list ``[(a, b, False)]``.

    Every product is added into the same table by :func:`_added`, so the
    first one, if its factors cannot collide, builds the table in one
    comprehension.  The degree bound (the largest of the products' bounds)
    is checked once, and the table is finished once at the end by
    :func:`_finished`, which keeps it as it is when it holds no zero and no
    ``Fraction``.  A lone product whose smaller factor is one term takes
    :meth:`Polynomial._shifted` instead, one pass with the sign folded into
    that term's coefficient.  Raises :class:`ChartMismatch` for a factor on
    another chart.
    """
    out: dict[int, int | Fraction] = {}
    degree = 0
    top = _BITS * chart.dim
    fields = (1 << top) - 1
    for a, b, negate in products:
        if a.chart is not chart or b.chart is not chart:
            if a.chart != chart or b.chart != chart:
                raise ChartMismatch("operands live on different charts")
        small, large = (a, b) if len(a._terms) <= len(b._terms) else (b, a)
        if not small._terms:
            continue
        if len(small._terms) == 1:
            (shift, factor), = small._terms.items()
            if len(products) == 1:
                return large._shifted(shift, -factor if negate else factor)
            bound = large._degree + (shift >> top)
        else:
            bound = a._degree + b._degree
        if bound > degree:
            degree = bound
        out = _added(out, large._terms, small._terms, negate, bound, fields)
    return _make(chart, _finished(out), _check_degree(degree))


def merge_walk(levels: Sequence[Mapping[int, Polynomial]], entries, chart: Chart) -> dict:
    """``{key: Polynomial}``, the wedge of 1-forms along a merge table
    (:class:`~formcalc.exterior._Generator`'s walk): ``levels[j]`` holds the
    ``j``-th form's coefficients by index, and ``entries(key)`` the ``(i,
    merged, odd)`` that extend ``key``.  Level 1 is the first form's
    coefficients on the indices of ``entries(())``, as they are; each later
    level is one :func:`_walk_level` on packed tables, and an empty level
    ends the walk.  Only the last level's tables are settled, each into one
    ``Polynomial``.  ``levels`` is not empty: every bracket has an argument.
    A pairing with constant target coefficients takes :func:`merge_pairing`,
    which folds the last level into one table."""
    if len(levels) == 1:
        first = levels[0]
        return {merged: first[i] for i, merged, _ in entries(()) if i in first}
    current = _walked(levels, entries, _BITS * chart.dim)
    for table, _ in current.values():
        _settle(table)
    return {key: _make(chart, table, degree) for key, (table, degree) in current.items()}


def merge_pairing(levels: Sequence[Mapping[int, Polynomial]], entries, chart: Chart,
                  weights: Mapping) -> Polynomial:
    """``sum(weights[key] * c for key, c in merge_walk(levels, entries,
    chart).items())`` as one polynomial: the pairing of the wedge with a
    target whose coefficients are the constants ``weights``, from
    :func:`constant_weights`.  The levels before the last are walked as in
    :func:`merge_walk`, and the last is one :func:`_paired_level` into one
    table, finished once; no polynomial is built per key.  A lone level is
    paired from the constant 1 on the empty tuple.  Its degree bound is the
    largest of the last level's products' bounds, cancelled ones included."""
    top = _BITS * chart.dim
    current = _walked(levels[:-1], entries, top) if len(levels) > 1 else {(): ({0: 1}, 0)}
    table, degree = _paired_level(current, levels[-1], entries, weights, top)
    return _make(chart, _finished(table), _check_degree(degree))


def constant_weights(coefficients: Mapping) -> dict | None:
    """``{key: value}`` when every polynomial of ``coefficients`` is a
    nonzero constant ``value``, else ``None``: :func:`merge_pairing`'s weights."""
    if all(len(c._terms) == 1 and 0 in c._terms for c in coefficients.values()):
        return {key: c._terms[0] for key, c in coefficients.items()}
    return None


def _walked(levels: Sequence[Mapping[int, Polynomial]], entries, top: int) -> dict:
    """The ``{key: (table, degree bound)}`` of the wedge of ``levels``, one
    or more: the first level's coefficients as they are, then one
    :func:`_walk_level` per later level; an empty level ends the walk."""
    first = levels[0]
    current = {merged: (first[i]._terms, first[i]._degree) for i, merged, _ in entries(()) if i in first}
    for coefficients in levels[1:]:
        if not current:
            break
        current = _walk_level(current, coefficients, entries, top)
    return current


def _walk_level(current: dict, coefficients: Mapping[int, Polynomial], entries, top: int) -> dict:
    """One level of :func:`merge_walk`: for each ``key`` of ``current``, a
    ``(table, degree bound)`` pair, and each of its entries ``(i, merged,
    odd)`` with a coefficient ``c`` at ``i``, ``table * c``, negated if
    ``odd``, is added into ``merged``'s table by :func:`_add_product`.  Each
    bound is the largest of its products' bounds, as in
    :func:`sum_of_products`, and is checked before the table is cleared of
    zeros (only when it holds one) or dropped (when empty), so ``entries``
    reads the keys of nonzero partial wedges alone.  No product here takes
    :func:`_added`'s collision test: on dense brackets few pass it, and a
    test per fresh table costs more than the comprehension saves."""
    sums: dict = {}
    for key, (table, degree) in current.items():
        size = len(table)
        for i, merged, odd in entries(key):
            c = coefficients.get(i)
            if c is None:
                continue
            terms = c._terms
            small, large, lead = (table, terms, c._degree) if size <= len(terms) else (terms, table, degree)
            bound = lead + (next(iter(small)) >> top) if len(small) == 1 else degree + c._degree
            acc = sums.get(merged)
            if acc is None:
                acc = sums[merged] = [{}, bound]
            elif bound > acc[1]:
                acc[1] = bound
            _add_product(acc[0], large, small, odd)
    out = {}
    for merged, (table, degree) in sums.items():
        _check_degree(degree)
        if not all(table.values()):
            table = {key: value for key, value in table.items() if value}
        if table:
            out[merged] = (table, degree)
    return out


def _paired_level(current: dict, coefficients: Mapping[int, Polynomial], entries, weights: Mapping,
                  top: int) -> tuple[dict, int]:
    """The last level of :func:`merge_pairing`: ``(table, degree bound)`` of
    the sum over :func:`_walk_level`'s products, each times the constant
    ``weights[merged]``, all added into one table by :func:`_added`.  A
    negative weight flips the product's sign, and a magnitude other than 1
    scales its smaller factor, one pass over that factor.  The table is left
    unfinished."""
    out: dict = {}
    degree = 0
    fields = (1 << top) - 1
    for key, (table, walked) in current.items():
        size = len(table)
        for i, merged, odd in entries(key):
            c = coefficients.get(i)
            if c is None:
                continue
            terms = c._terms
            small, large, lead = (table, terms, c._degree) if size <= len(terms) else (terms, table, walked)
            bound = lead + (next(iter(small)) >> top) if len(small) == 1 else walked + c._degree
            if bound > degree:
                degree = bound
            weight = weights[merged]
            if weight < 0:
                weight, odd = -weight, not odd
            if weight != 1:
                small = {k: value * weight for k, value in small.items()}
            out = _added(out, large, small, odd, bound, fields)
    return out, degree


def coordinates(chart: Chart) -> tuple[Polynomial, ...]:
    """The chart coordinates as degree-one polynomials, in chart order."""
    return tuple(Polynomial.variable(chart, name) for name in checked(chart, Chart, "chart").names)


def exact_divide(a: Polynomial, b: Polynomial) -> Polynomial:
    """Return ``q`` with ``q * b == a``; raise :class:`NotDivisible` otherwise.

    Classical division by leading terms in graded-lexicographic order.  The
    remainder's keys sit in a max-heap (Johnson 1974), so each step finds the
    leading term without scanning the remainder; keys cancelled to zero stay
    in the heap and are skipped when they surface.
    """
    checked(a, Polynomial, "dividend")
    if checked(b, Polynomial, "divisor", chart=a.chart).is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if a.is_zero():
        return Polynomial.zero(a.chart)
    dim = a.chart.dim
    lead_b = max(b._terms)
    coeff_b = b._terms[lead_b]
    lead_exponent = _unpack(lead_b, dim)
    rest_b = [(key, value) for key, value in b._terms.items() if key != lead_b]
    remainder = dict(a._terms)
    heap = [-key for key in remainder]
    heapify(heap)
    quotient: dict[int, int | Fraction] = {}
    while heap:
        lead = -heappop(heap)
        c = remainder.pop(lead, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a key done already
        if any(x < y for x, y in zip(_unpack(lead, dim), lead_exponent)):
            raise NotDivisible("polynomials do not divide exactly")
        shift = lead - lead_b
        factor = _coefficient(Fraction(c) / coeff_b)
        quotient[shift] = factor
        # every key below is smaller than ``lead``, so ``lead`` never returns
        for kb, cb in rest_b:
            key = shift + kb
            acc = remainder.get(key)
            if acc is None:
                remainder[key] = -factor * cb
                heappush(heap, -key)
            else:
                acc -= factor * cb
                if acc:
                    remainder[key] = acc
                else:
                    del remainder[key]
    return _make(a.chart, quotient, a._degree - (lead_b >> _BITS * dim))


class RationalExpr:
    """An unreduced quotient of two polynomials.

    No multivariate GCD is ever computed: equality is decided by
    cross-multiplication, ``n1*d2 == n2*d1``.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        checked(numerator, Polynomial, "numerator")
        if checked(denominator, Polynomial, "denominator", chart=numerator.chart).is_zero():
            raise DivisionByZero("zero denominator")
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
        numerator = sum_of_products([(self.numerator, other.denominator, False),
                                     (other.numerator, self.denominator, False)], self.chart)
        return RationalExpr(numerator, self.denominator * other.denominator)

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
        return RationalExpr(self.numerator * other.denominator, self.denominator * other.numerator)

    def as_polynomial(self) -> Polynomial:
        """The exact polynomial value; raises :class:`NotDivisible` if there is none."""
        return exact_divide(self.numerator, self.denominator)

    def as_constant(self) -> Fraction:
        """The ratio ``c`` of the leading coefficients if two products by ints show
        it is the value, else :meth:`as_polynomial` as a constant; raises if not one."""
        num, den = self.numerator._terms, self.denominator._terms
        if num and (lead := max(num)) == max(den):
            c = Fraction(num[lead]) / den[lead]
            if self.numerator * c.denominator == self.denominator * c.numerator:
                return c
        return self.as_polynomial().constant_value()

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self):
        return f"RationalExpr({self.numerator!r}, {self.denominator!r})"


def _check_even_skew(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> tuple[dict, int]:
    """``(upper, n)``: the upper triangle ``{(i, j): rows[i][j]}``, ``i < j``,
    of the nonzero entries, and the size of ``rows``; raises unless ``rows``
    is an even skew matrix on ``chart``."""
    checked(chart, Chart, "matrix chart")
    n = len(checked(rows, Sequence, "matrix"))
    for row in rows:
        if len(checked(row, Sequence, "matrix row")) != n:
            raise InvalidArgument("matrix must be square")
        for entry in row:
            checked(entry, Polynomial, "matrix entry", chart=chart)
    if not all(rows[j][i] == -rows[i][j] if i != j else rows[i][i].is_zero()
               for i in range(n) for j in range(i, n)):
        raise InvalidArgument("matrix must be skew-symmetric")
    if n % 2:
        raise InvalidArgument("skew matrix must have even size")
    return {(i, j): rows[i][j] for i, j in combinations(range(n), 2) if not rows[i][j].is_zero()}, n


def _pfaffian_sweep(upper: Mapping[tuple[int, int], Polynomial], m: int):
    """A fraction-free Gauss-Jordan sweep over 2x2 skew pivots (Bunch, Math.
    Comp. 38, 1982) on the integer tableau ``T``, from ``T = A = L*M`` for
    the ``m x m`` skew ``M`` with upper triangle ``upper`` of constants and
    the lcm ``L`` of their denominators, and ``p = 1``.  ``T`` is the
    Gauss-Jordan tableau with its swept rows negated, so it stays skew, as
    Goodnight's SWEEP keeps a symmetric tableau symmetric (Amer. Statist.
    33(3), 1979).  A step pivots on ``d = T[r][s]``: ``r`` is the first
    index not yet swept, ``s`` the first unswept ``j`` with ``T[r][j]``
    nonzero.  With columns ``u = T[.][r]`` and ``v = T[.][s]``, each other
    pair becomes ``(d*T[k][j] + v[k]*u[j] - u[k]*v[j]) // p``; then the
    pivot pair turns, column ``r`` to ``v``, ``s`` to ``-u`` and ``T[r][s]``
    to ``-p``, and ``p = d``.  Each division is exact: up to sign, ``p`` is
    the Pfaffian of ``A`` on the swept indices ``P`` and ``T[i][j]`` that on
    ``P ^ {i, j}``, related by Knuth's identity for overlapping Pfaffians
    (Electron. J. Combin. 3(2), 1996).  ``None`` if ``M`` is singular, else
    ``(L, p, T)``: ``-M^-1 = -L*T/p``."""
    values = {key: entry._terms.get(0, 0) for key, entry in upper.items()}
    scale = lcm(*(x.denominator for x in values.values()))
    rows = [[0] * m for _ in range(m)]
    for (i, j), x in values.items():
        rows[i][j] = x.numerator * (scale // x.denominator)
        rows[j][i] = -rows[i][j]
    left = list(range(m))
    p = 1
    while left:
        r = left.pop(0)
        top = rows[r]
        s = next((j for j in left if top[j]), None)
        if s is None:
            return None
        left.remove(s)
        d, low = top[s], rows[s]
        for k, row in enumerate(rows):
            if k != r and k != s:
                a, b = row[r], row[s]
                row = rows[k] = [(d * x - b * y + a * z) // p for x, y, z in zip(row, top, low)]
                row[r], row[s] = b, -a
        rows[r], rows[s] = low, [-z for z in top]
        rows[r][r], rows[r][s], rows[s][r], rows[s][s] = 0, -p, p, 0
        p = d
    return scale, p, rows


def _polynomial_sweep(upper: Mapping[tuple[int, int], Polynomial], m: int, chart: Chart):
    """:func:`_pfaffian_sweep`'s steps over ``Q[x]``, in place on the skew
    tableau ``T`` of ``Polynomial`` entries, from ``T = M``.  Each pivot is a
    nonzero unswept ``T[r][s]``, ``r < s``: constant if one is, else of the
    fewest terms, and then the one whose two columns hold the fewest terms
    over the unswept rows.  Each pair ``k < j`` off the pivots is one fused
    sum of the nonzero products, times ``1/p`` if ``p`` is a constant, else
    :func:`exact_divide`, and ``T[j][k]`` its negation.  ``None`` if ``M``
    is singular, else ``(p, T)``: ``-M^-1 = -T/p``."""
    zero = Polynomial.zero(chart)
    rows = [[zero] * m for _ in range(m)]
    for (i, j), x in upper.items():
        rows[i][j], rows[j][i] = x, -x
    left = list(range(m))
    p = Polynomial.constant(chart, 1)
    while left:
        terms = {c: sum(rows[k][c].term_count() for k in left) for c in left}
        pivots = [(not x.is_constant(), x.term_count(), terms[r] + terms[s], r, s)
                  for r, s in combinations(left, 2) if not (x := rows[r][s]).is_zero()]
        if not pivots:
            return None
        *_, r, s = min(pivots)
        left = [c for c in left if c != r and c != s]
        top, low, d = rows[r], rows[s], rows[r][s]
        unit = Fraction(1) / p.constant_value() if p.is_constant() else None
        others = [k for k in range(m) if k != r and k != s]
        for k, j in combinations(others, 2):
            row = rows[k]
            products = [(x, y, negate) for x, y, negate in ((d, row[j], False), (row[s], top[j], True),
                                                            (row[r], low[j], False)) if x._terms and y._terms]
            if products:
                total = sum_of_products(products, chart)
                row[j] = total * unit if unit is not None else exact_divide(total, p)
                rows[j][k] = -row[j]
        for k in others:
            u, v = rows[k][r], rows[k][s]
            rows[k][r], rows[k][s], top[k], low[k] = v, -u, -v, u
        top[s], low[r] = -p, p
        p = d
    return p, rows


def matrix_determinant(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> Polynomial:
    """Determinant of an even skew-symmetric matrix of polynomials on ``chart``.

    It is ``p^2/L^m`` of :func:`_pfaffian_sweep` for a matrix of constants
    and ``p^2`` of :func:`_polynomial_sweep` for any other, with no
    adjugate read off the tableau; a singular matrix gives zero.

    Raises :class:`InvalidArgument` (a ``ValueError``) for a matrix that is
    not square, not skew-symmetric (a nonzero diagonal entry included) or of
    odd size, :class:`KindMismatch` for a row or entry of the wrong type and
    :class:`ChartMismatch` for an entry on another chart; shape, types and
    charts are checked first.
    """
    upper, n = _check_even_skew(rows, chart)
    if all(entry.is_constant() for entry in upper.values()):
        scale, p, _ = _pfaffian_sweep(upper, n) or (1, 0, None)
        return Polynomial.constant(chart, Fraction(p * p, scale ** n))
    p, _ = _polynomial_sweep(upper, n, chart) or (Polynomial.zero(chart), None)
    return p * p


def _skew_inverse(upper: Mapping[tuple[int, int], Polynomial], m: int,
                  chart: Chart) -> tuple[Polynomial, list]:
    """``(det(M), adjugate(M))`` of the ``m x m`` skew matrix ``M`` with upper
    triangle ``upper`` (absent pairs zero), read off one sweep's tableau
    ``T``: ``det(M) = p^2/L^m`` and ``adj(M) = p*L*T/L^m``.  Constants take
    :func:`_pfaffian_sweep`, any other entries :func:`_polynomial_sweep`
    (``L = 1``), one product ``p*T[i][j]`` per pair ``i < j``.  A singular
    matrix gets the zero adjugate.  Unchecked: ``m`` must be even and every
    entry on ``chart``."""
    zero = Polynomial.zero(chart)
    adj = [[zero] * m for _ in range(m)]
    if all(entry.is_constant() for entry in upper.values()):
        solved = _pfaffian_sweep(upper, m)
        if solved is None:
            return zero, adj
        scale, p, block = solved
        unit = Fraction(p, scale ** m)
        return Polynomial.constant(chart, p * unit), [
            [Polynomial.constant(chart, scale * x * unit) for x in row] for row in block]
    p, block = _polynomial_sweep(upper, m, chart) or (zero, adj)  # p = 0: det = 0 and adj = 0
    for i, j in combinations(range(m), 2):
        value = p * block[i][j]
        adj[i][j], adj[j][i] = value, -value
    return p * p, adj


def matrix_adjugate(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> list[list[Polynomial]]:
    """Classical adjugate of an even skew-symmetric matrix of polynomials:
    ``adjugate(M) @ M == det(M) * I`` over the polynomial ring, read off
    :func:`_skew_inverse`'s sweep.  Raises as :func:`matrix_determinant`
    does: :class:`InvalidArgument` for a matrix of the wrong shape."""
    return _skew_inverse(*_check_even_skew(rows, chart), chart)[1]


def _negated_inverse(upper: Mapping[tuple[int, int], Polynomial], m: int, chart: Chart) -> dict:
    """The nonzero entries ``(i, j)``, ``i < j``, of ``-M^-1`` for the ``m x m``
    skew matrix ``M`` with upper triangle ``upper`` (absent pairs zero), such
    as a 2-form's ``terms``; ``{}`` unless ``det(M)`` is a nonzero constant.
    Each is ``-L*T[i][j]/p`` of one sweep's tableau: one fraction of
    :func:`_pfaffian_sweep`'s integers, or :func:`_polynomial_sweep`'s entry
    times ``-1/p`` (``L = 1``) when its ``p`` is a constant."""
    if all(entry.is_constant() for entry in upper.values()):
        solved = _pfaffian_sweep(upper, m)
        if solved is None:
            return {}
        scale, p, block = solved
        return {(i, j): _make(chart, {0: _coefficient(Fraction(-scale * x, p))}, 0)
                for i, row in enumerate(block) for j in range(i + 1, m) if (x := row[j])}
    p, block = _polynomial_sweep(upper, m, chart) or (Polynomial.zero(chart), None)
    if p.is_zero() or not p.is_constant():
        return {}
    unit = Fraction(-1) / p.constant_value()
    return {(i, j): block[i][j] * unit for i, j in combinations(range(m), 2) if not block[i][j].is_zero()}
