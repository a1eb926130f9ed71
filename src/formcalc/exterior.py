"""Differential forms and multivector fields on a coordinate chart.

Both kinds of tensors are grade-homogeneous and stored sparsely as maps from
strictly increasing coordinate-index tuples to nonzero polynomial
coefficients.  One merge rule, :func:`_merge_sign`, signs every move of
indices into sorted place: normalizing an unordered tuple, ``wedge``, ``d``
and each entry of the merge table of :class:`_Generator`.  Contraction and
``_star`` take their signs from removing indices, by the first convention below.

``Form(...)`` and ``Multivector(...)`` check outside input in full.  The
package's own results are normal by construction and are built by
``_Graded._of``, which takes its term dict unchecked; the tests check that
each is the tensor ``__init__`` would make of the same terms.

Sign conventions.  Every sign in the package follows from two choices made
here:

* Contraction of a decomposable multivector applies its first factor first
  (innermost): ``i_{X1^...^Xk} a = i_{Xk}(...(i_{X1} a))``.  With the
  standard pair ``omega0 = sum_j dp_j^dq_j`` and ``Lambda0 = sum_j
  dd p_j ^ dd q_j`` this makes ``i_{Lambda0} omega0 = n`` on a 2n-dimensional
  chart, and more generally ``i_{Lambda0} omega0^k = k(n-k+1) omega0^{k-1}``.
* The scalar pairing of a k-form with a k-multivector is the determinant
  pairing normalized to ``+1`` on matching increasing basis tuples.  Given
  the contraction convention this is exactly the normalization for which

      <df1^...^dfk, L> * V  ==  df1^...^dfk ^ (i_L V)

  holds for every top form ``V``; ``tests/test_exterior.py`` re-derives this
  identity on a reference chart so the two conventions cannot drift apart.

Every bracket is such a pairing with a generating multivector, taken by the
one type :class:`_Generator`.  By the identity, the top coefficient of
``df1^...^dfk ^ a`` is the pairing with ``*a = _star(a, 1)``: so are the
form-defined brackets and the Dirac form numerator, ``a = Theta ^ omega^{m-1}``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial

from .chart import Chart
from .errors import DegenerateStructure, DivisionByZero, GradeMismatch, InvalidArgument, NotClosed, checked
from .poly import (_SEPARATORS, Polynomial, _negated_inverse, _nonnegative_power, _partials, _signed_text,
                   constant_weights, merge_pairing, merge_walk, sum_of_products)

IndexTuple = tuple[int, ...]


def _normalize_index_tuple(indices, dim: int) -> tuple[IndexTuple | None, int]:
    """Merge indices below ``dim`` one by one into increasing order by
    :func:`_merge_sign`, multiplying the signs; ``(None, 0)`` on a repeat."""
    idx = checked(indices, Sequence, "index tuple")
    if not all(isinstance(i, int) and 0 <= i < dim for i in idx):
        raise InvalidArgument(f"coordinate indices must be ints in 0..{dim - 1}")
    key, sign = (), 1
    for i in idx:
        key, step = _merge_sign(key, (i,))
        if key is None:
            return None, 0
        sign *= step
    return key, sign


def _merge_sign(left: IndexTuple, right: IndexTuple) -> tuple[IndexTuple | None, int]:
    """Wedge-merge two increasing tuples; ``(None, 0)`` if they overlap."""
    inversions = 0
    for a in left:
        for b in right:
            if a == b:
                return None, 0
            if a > b:
                inversions += 1
    return tuple(sorted(left + right)), (-1 if inversions % 2 else 1)


def _merge_products(groups: dict, left: dict, right: dict, flip: bool = False):
    """Add to ``groups``, under the merged tuple, the signed product of every
    pair of terms of ``left`` and ``right`` whose index tuples do not
    overlap, as ``(a, b, negate)`` for :func:`_summed`; ``flip`` negates all."""
    for ka, ca in left.items():
        for kb, cb in right.items():
            key, sign = _merge_sign(ka, kb)
            if key is not None:
                groups.setdefault(key, []).append((ca, cb, (sign == -1) != flip))


def _accumulate(table: dict, key, value):
    """Add ``value`` into ``table[key]``, dropping the key when the sum is zero."""
    acc = table.get(key)
    total = value if acc is None else acc + value
    if total.is_zero():
        table.pop(key, None)
    else:
        table[key] = total


def _summed(groups: dict, chart: Chart) -> dict:
    """``{key: sum_of_products(products)}`` for the ``(a, b, negate)`` product
    lists in ``groups``, each summed once, with zero sums dropped."""
    out = {}
    for key, products in groups.items():
        value = sum_of_products(products, chart)
        if not value.is_zero():
            out[key] = value
    return out


class _Graded:
    """Shared storage and linear structure of forms and multivectors."""

    __slots__ = ("chart", "grade", "terms")
    _atom = "?"

    def __init__(self, chart: Chart, grade: int, terms: Mapping | None = None):
        if not 0 <= checked(grade, int, "tensor grade") <= checked(chart, Chart, "tensor chart").dim:
            raise GradeMismatch(f"grade must lie between 0 and {chart.dim}")
        table: dict[IndexTuple, Polynomial] = {}
        if terms:
            for indices, coefficient in checked(terms, Mapping, "tensor terms").items():
                if isinstance(coefficient, (int, Fraction)):
                    coefficient = Polynomial.constant(chart, coefficient)
                checked(coefficient, Polynomial, "coefficient", chart=chart)
                key, sign = _normalize_index_tuple(indices, chart.dim)
                if len(indices) != grade:
                    raise GradeMismatch("index tuple length must equal the grade")
                if key is None or coefficient.is_zero():
                    continue
                _accumulate(table, key, coefficient if sign == 1 else -coefficient)
        self.chart = chart
        self.grade = grade
        self.terms = table

    @classmethod
    def _of(cls, chart: Chart, grade: int, terms: dict):
        """A tensor owning ``terms``, unchecked: increasing in-range tuples of
        length ``grade`` to nonzero polynomials on ``chart``."""
        tensor = cls.__new__(cls)
        tensor.chart = chart
        tensor.grade = grade
        tensor.terms = terms
        return tensor

    @classmethod
    def zero(cls, chart: Chart, grade: int):
        return cls(chart, grade)

    @classmethod
    def from_polynomial(cls, p: Polynomial):
        return cls(p.chart, 0, {(): p})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> Polynomial:
        """The coefficient of the given index tuple, with parity sign applied."""
        key, sign = _normalize_index_tuple(indices, self.chart.dim)
        value = self.terms.get(key)  # a repeated index gives the key None, which has no term
        if value is None:
            return Polynomial.zero(self.chart)
        return value if sign == 1 else -value

    def __add__(self, other):
        checked(other, type(self), "summand", chart=self.chart)
        if self.terms and other.terms and self.grade != other.grade:
            raise GradeMismatch("cannot add tensors of different grades")
        grade = self.grade if self.terms or not other.terms else other.grade
        out = dict(self.terms)
        for key, value in other.terms.items():
            _accumulate(out, key, value)
        return self._of(self.chart, grade, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.chart, self.grade, {k: -v for k, v in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, Polynomial):
            checked(scalar, Polynomial, "scalar", chart=self.chart)
        elif not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        terms = {key: c for key, value in self.terms.items() if not (c := value * scalar).is_zero()}
        return self._of(self.chart, self.grade, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                raise DivisionByZero("division by zero")
            return self * (Fraction(1) / scalar)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.chart != other.chart or self.terms != other.terms:
            return False
        return self.grade == other.grade or (not self.terms and not other.terms)

    def _coefficient_text(self, p: Polynomial) -> str:
        # the separator and the "c * " before the atoms, as str(p) prints c: a sum in parentheses, "" for 1
        text = str(p) if p.term_count() == 1 else f"({p})"
        negative = text.startswith("-")
        body = text[negative:]
        return _SEPARATORS[negative] if body == "1" else f"{_SEPARATORS[negative]}{body} * "

    def __str__(self):
        if not self.terms:
            return "0"
        if self.grade == 0:
            return str(self.terms[()])
        names = self.chart.names
        return _signed_text([self._coefficient_text(self.terms[key])
                             + "^".join(f"{self._atom}({names[i]})" for i in key) for key in sorted(self.terms)])

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Form(_Graded):
    """A grade-homogeneous differential form with polynomial coefficients."""

    _atom = "d"


class Multivector(_Graded):
    """A grade-homogeneous multivector field with polynomial coefficients."""

    _atom = "e"


def coordinate_form(chart: Chart, name: str) -> Form:
    """The coordinate differential ``d(name)``."""
    return Form(chart, 1, {(checked(chart, Chart, "chart").index(name),): Fraction(1)})


def coordinate_field(chart: Chart, name: str) -> Multivector:
    """The coordinate vector field ``e(name)``."""
    return Multivector(chart, 1, {(checked(chart, Chart, "chart").index(name),): Fraction(1)})


def wedge(a, b):
    """Exterior product of two forms or two multivectors."""
    checked(a, _Graded, "wedge factor")
    checked(b, type(a), "wedge factor", chart=a.chart)
    chart = a.chart
    grade = a.grade + b.grade
    if grade > chart.dim:
        return type(a).zero(chart, chart.dim)
    groups: dict[IndexTuple, list] = {}
    _merge_products(groups, a.terms, b.terms)
    return a._of(chart, grade, _summed(groups, chart))


def wedge_all(factors: Sequence) -> "_Graded":
    """The wedge of a nonempty sequence of tensors of one kind, checked in order,
    taken in :func:`_fewest_new_indices` order with its sign, ``(-1)^(grade_a*grade_b)``
    per inverted pair, folded into the first factor.  For 1-forms the first ``j``
    have at most ``C(|U_j|, j)`` keys, ``U_j`` the union of their supports."""
    if not checked(factors, Sequence, "wedge factors"):
        raise InvalidArgument("need at least one factor")
    first = checked(factors[0], _Graded, "wedge factor")
    for factor in factors[1:]:
        checked(factor, type(first), "wedge factor", chart=first.chart)
    order, odd = _fewest_new_indices(factors)
    result = -factors[order[0]] if odd else factors[order[0]]
    for p in order[1:]:
        result = wedge(result, factors[p])
    return result


def _fewest_new_indices(factors: Sequence) -> tuple[list[int], bool]:
    """The positions of ``factors`` in the order that takes next the factor
    whose index support adds the fewest indices not yet covered, ties to the
    earlier position, and whether the sign of that permutation is odd."""
    supports = [sum({1 << i for key in factor.terms for i in key}) for factor in factors]
    left, order, covered, odd = list(range(len(factors))), [], 0, False
    while left:
        at = min(range(len(left)), key=lambda j: (supports[left[j]] & ~covered).bit_count())
        p = left.pop(at)
        odd ^= bool(factors[p].grade * sum(factors[q].grade for q in left[:at]) % 2)
        covered |= supports[p]
        order.append(p)
    return order, odd


def exterior_derivative(a: Form) -> Form:
    """The exterior derivative; on grade-0 forms this is the differential.
    A non-constant coefficient's ``differential`` merges in front by :func:`_merge_sign`."""
    chart = checked(a, Form, "exterior derivative argument").chart
    if a.grade >= chart.dim:
        return Form.zero(chart, chart.dim)
    out: dict[IndexTuple, Polynomial] = {}
    for key, coefficient in a.terms.items():
        if coefficient.is_constant():
            continue
        for (i,), dc in differential(coefficient).terms.items():
            merged, sign = _merge_sign((i,), key)
            if merged is not None:
                _accumulate(out, merged, dc if sign == 1 else -dc)
    return Form._of(chart, a.grade + 1, out)


def differential(f: Polynomial) -> Form:
    """``df`` for a scalar function given as a polynomial: its nonzero
    partials, all read in one pass by :func:`~formcalc.poly._partials`."""
    checked(f, Polynomial, "differential argument")
    return Form._of(f.chart, 1, {(i,): df for i, df in _partials(f).items()})


def _contract_single(terms: dict[IndexTuple, Polynomial], index: int) -> dict:
    """Interior product against the coordinate direction ``index``.  Distinct
    tuples that hold ``index`` leave distinct rests, so nothing is merged."""
    out: dict[IndexTuple, Polynomial] = {}
    for key, coefficient in terms.items():
        if index not in key:
            continue
        position = key.index(index)
        out[key[:position] + key[position + 1:]] = -coefficient if position % 2 else coefficient
    return out


def contract(field: Multivector, a: Form) -> Form:
    """Interior product ``i_field a``; first factors of wedges act first."""
    checked(field, Multivector, "contracted field")
    if field.grade > checked(a, Form, "contracted form", chart=field.chart).grade:
        raise GradeMismatch("cannot contract into a form of lower grade")
    chart = a.chart
    groups: dict[IndexTuple, list] = {}
    for key, coefficient in field.terms.items():
        current = a.terms
        for index in key:
            current = _contract_single(current, index)
            if not current:
                break
        for k, v in current.items():
            groups.setdefault(k, []).append((v, coefficient, False))
    return Form._of(chart, a.grade - field.grade, _summed(groups, chart))


def pair(a: Form, field: Multivector) -> Polynomial:
    """Determinant pairing of a k-form with a k-multivector."""
    checked(a, Form, "paired form")
    if checked(field, Multivector, "paired field", chart=a.chart).grade != a.grade:
        raise GradeMismatch("pairing needs equal grades")
    small, large = (a.terms, field.terms) if len(a.terms) <= len(field.terms) else (field.terms, a.terms)
    return sum_of_products([(value, large[key], False) for key, value in small.items() if key in large],
                           a.chart)


class _Generator:
    """A generating multivector ``target`` with its merge table ``_table``,
    filled by the walks that read it: each subset ``key`` of an index tuple
    that a walk reaches maps to the ``(i, merged, odd)`` that extend it within
    one, where ``_merge_sign(key, (i,))`` is ``(merged, -1 if odd else 1)``,
    and bit ``p`` of ``_holding[i]`` is set when the ``p``-th tuple holds ``i``.
    1-forms are wedged on one at a time by :func:`~formcalc.poly.merge_walk`,
    which reads the table through :meth:`_entries` and adds each step's
    products into the packed tables of the merged tuples, with no polynomial
    built for a partial wedge.  ``_weights`` holds ``target``'s coefficients
    when every one is a constant (so for ``Lambda^k/k!`` of a constant form,
    and ``*alpha`` under a constant volume), decided once here, else ``None``.
    A key's entries are a pure function of ``target`` and the key, stored once
    whole, so a walk racing another to fill a key can only store an equal list."""

    __slots__ = ("target", "_holding", "_table", "_weights")

    def __init__(self, target: Multivector):
        self.target = target
        self._holding = [0] * target.chart.dim
        for p, t in enumerate(target.terms):
            for i in t:
                self._holding[i] |= 1 << p
        self._table: dict[IndexTuple, list] = {}
        self._weights = constant_weights(target.terms)

    def _fill(self, key: IndexTuple) -> list:
        """Store and return the entries of ``key``, read off the tuples that hold it."""
        held = -1  # the bits of the tuples that hold key: all of them for ()
        for i in key:
            held &= self._holding[i]
        entries = []
        for i, holding in enumerate(self._holding):
            if held & holding and i not in key:
                merged, sign = _merge_sign(key, (i,))
                entries.append((i, merged, sign == -1))
        self._table[key] = entries
        return entries

    def _entries(self, key: IndexTuple) -> list:
        """The entries of ``key``, filled on the first read: the walks' accessor."""
        return self._table.get(key) or self._fill(key)

    def wedge(self, forms: Sequence[Form]) -> dict[IndexTuple, Polynomial]:
        """The coefficients of ``forms[0] ^ ... ^ forms[-1]``, one or more
        1-forms, on the ``len(forms)``-element subsets of the index tuples of
        ``target``."""
        return merge_walk(_levels(forms), self._entries, self.target.chart)

    def products(self, forms: Sequence[Form]) -> list:
        """The products whose sum is :meth:`pair` of ``forms``, unsummed."""
        terms = self.target.terms
        return [(value, terms[key], False) for key, value in self.wedge(forms).items()]

    def pair(self, forms: Sequence[Form]) -> Polynomial:
        """``pair(wedge_all(forms), target)`` for k 1-forms.  With constant
        ``_weights`` the walk's last level is folded into one table by
        :func:`~formcalc.poly.merge_pairing`, one polynomial per pairing;
        a target with a polynomial coefficient takes the fused sum of
        :meth:`products`, one polynomial per key of the wedge and one for the sum."""
        if self._weights is None:
            return sum_of_products(self.products(forms), self.target.chart)
        return merge_pairing(_levels(forms), self._entries, self.target.chart, self._weights)

    def field(self, forms: Sequence[Form]) -> Multivector:
        """The field whose component ``i`` is :meth:`pair` of ``forms +
        [d(x_i)]``: over the tuples ``K`` of ``target`` that hold ``i``, the
        signed sum of ``target_K`` times the fixed wedge on ``K`` less ``i``."""
        chart = self.target.chart
        terms = self.target.terms
        groups: dict[IndexTuple, list] = {}
        for key, value in self.wedge(forms).items():
            for i, merged, odd in self._entries(key):
                groups.setdefault((i,), []).append((terms[merged], value, odd))
        return Multivector._of(chart, 1, _summed(groups, chart))


def _levels(forms: Sequence[Form]) -> list[dict[int, Polynomial]]:
    """Each 1-form's coefficients by index: the levels of a generator's walk."""
    return [{i: c for (i,), c in form.terms.items()} for form in forms]


def _top_coefficient(volume: Form) -> Polynomial:
    """The coefficient ``c`` of a volume form ``c * dx_1^...^dx_m``: the one
    check of a volume, shared by every construction that takes one."""
    if checked(volume, Form, "volume").grade != volume.chart.dim or volume.is_zero():
        raise DegenerateStructure("volume must be a nonzero top form")
    return volume.terms[tuple(range(volume.grade))]


def _volume_constant(volume: Form) -> Fraction:
    """The constant ``c`` of a top form ``c * dx_1^...^dx_m``."""
    try:
        return _top_coefficient(volume).constant_value()
    except ValueError:
        raise DegenerateStructure("volume coefficient must be a rational constant") from None


def _star(a: Form, scale: Fraction) -> Multivector:
    """``scale`` times the multivector ``L`` with ``i_L(dx_1^...^dx_m) == a``,
    unchecked: each index tuple of ``a`` goes to its complement."""
    chart = a.chart
    k = chart.dim - a.grade
    out: dict[IndexTuple, Polynomial] = {}
    for key, coefficient in a.terms.items():
        complement = tuple(i for i in range(chart.dim) if i not in key)
        # sign of contracting the complement out of the full top tuple
        epsilon = -1 if (sum(complement) - k * (k - 1) // 2) % 2 else 1
        out[complement] = coefficient * (epsilon * scale)
    return Multivector._of(chart, k, out)


def mv_from_form(volume: Form, a: Form) -> Multivector:
    """The unique multivector ``L`` with ``contract(L, volume) == a``, for a
    top form ``volume`` whose single coefficient is a nonzero rational constant."""
    scale = Fraction(1) / _volume_constant(volume)
    return _star(checked(a, Form, "mv_from_form argument", chart=volume.chart), scale)


def form_power(a: Form, power: int) -> Form:
    """``a^power`` as ``power - 1`` wedges onto ``a``; ``power == 0`` gives the constant-one 0-form."""
    checked(a, Form, "form_power base")
    if _nonnegative_power(power) == 0:
        return Form.from_polynomial(Polynomial.constant(a.chart, 1))
    return wedge_all([a] * power)


def _half_dimension(chart: Chart) -> int:
    """``n`` for a ``2n``-dimensional chart: the parity check of the package and its parser."""
    if chart.dim % 2:
        raise DegenerateStructure(f"chart must be even-dimensional, not {chart.dim}-dimensional")
    return chart.dim // 2


def poisson_bivector(omega: Form) -> Multivector:
    """The inverse bivector of a nondegenerate 2-form.

    Oriented so that the standard form ``sum_j dp_j^dq_j`` maps to
    ``sum_j e(p_j)^e(q_j)``; the induced binary bracket then satisfies
    ``{p_j, q_j} = 1``.  Requires an even-dimensional chart and a constant
    nonzero determinant of the coefficient matrix ``M``.  The coefficients
    are the upper triangle of ``-M^-1``, read off one 2x2 Pfaffian sweep.
    """
    chart = checked(omega, Form, "symplectic form", grade=2).chart
    terms = _negated_inverse(omega.terms, 2 * _half_dimension(chart), chart)
    if not terms:
        raise DegenerateStructure("coefficient matrix needs a constant nonzero determinant")
    return Multivector._of(chart, 2, terms)


def lie_derivative(field: Multivector, a: Form) -> Form:
    """Lie derivative along a vector field, via ``i_X d + d i_X``."""
    checked(field, Multivector, "Lie derivative field", grade=1)  # d and contract check ``a``
    result = contract(field, exterior_derivative(a))
    if a.grade >= 1:
        result = result + exterior_derivative(contract(field, a))
    return result


def standard_form(chart: Chart) -> Form:
    """``sum_j dp_j ^ dq_j`` where the first half of the chart is q, second half p."""
    n = _half_dimension(checked(chart, Chart, "chart"))
    return Form(chart, 2, {(j, n + j): Fraction(-1) for j in range(n)})


class SymplecticData:
    """A closed nondegenerate 2-form together with its inverse bivector.

    Construction checks the cheapest conditions first: kind and grade, an
    even-dimensional chart, closedness (else :class:`~formcalc.errors.NotClosed`),
    and only then the constant nonzero determinant, by inverting the form.
    The bivector is the exact inverse, so contracting it into the form yields
    the half-dimension ``n`` (pinned by the tests).  Powers of the form and of
    the bivector are memoized, each one wedge onto the one below; instances
    are otherwise immutable.
    """

    __slots__ = ("chart", "omega", "bivector", "n", "_cache")

    def __init__(self, omega: Form):
        self.chart = checked(omega, Form, "symplectic form", grade=2).chart
        self.n = _half_dimension(self.chart)
        if not exterior_derivative(omega).is_zero():
            raise NotClosed("symplectic form must be closed")
        self.omega = omega
        self.bivector = poisson_bivector(omega)  # checks the determinant
        self._cache = {}

    def cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def _chained_power(self, name: str, base, k: int):
        """``base^k``: the constant 1 at ``k = 0``, ``base`` itself at ``k = 1``,
        and each higher power memoized as one wedge onto the one below."""
        if _nonnegative_power(k) == 0:
            return type(base).from_polynomial(Polynomial.constant(self.chart, 1))
        value = base
        for j in range(2, k + 1):
            value = self.cached((name, j), lambda: wedge(value, base))
        return value

    def power(self, k: int) -> Form:
        """``omega^k``."""
        return self._chained_power("power", self.omega, k)

    def volume(self) -> Form:
        """``omega^n / n!``, the canonical volume form."""
        return self.cached("volume", lambda: self.power(self.n) * Fraction(1, factorial(self.n)))

    def bivector_power(self, k: int) -> Multivector:
        """The k-fold wedge of the inverse bivector."""
        return self._chained_power("bivector_power", self.bivector, k)

    def __repr__(self):
        return f"SymplecticData(n={self.n}, chart={self.chart!r})"

