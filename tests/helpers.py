"""Coordinate splitting, seeded random generators and reference algorithms
for the test suite.

The generators are the built-in suites' own, drawing coefficients from
-3..3 instead of the suites' -2..2.  ``laplace_determinant`` and
``laplace_adjugate`` are plain cofactor expansion of any square matrix, one
independent determinant per cofactor.  They are the reference for
``formcalc.poly.matrix_determinant`` and ``matrix_adjugate`` on even skew
matrices (the 2x2 Pfaffian sweep over the integers for constant entries,
over the polynomials for the rest), for the Dirac constraint matrix, and for the Jacobian determinant
behind ``nambu_top_bracket``, which is not skew and so has no route in
``formcalc.poly``.  ``fraction_gauss_jordan`` is the ``Fraction``
elimination that constant matrices took before the fraction-free route:
the reference for it at sizes the Laplace expansion cannot reach.
``inplace_bareiss`` is Bareiss's row-pivoted Gauss-Jordan pass on ``m``
integers per row, the route constant matrices took before the 2x2 Pfaffian
sweep ``poly._pfaffian_sweep``: the reference for the sweep's ``-M^-1`` and
determinant.  ``legacy_bareiss`` is that pass as it was before each row kept
``m`` integers: the whole of ``[A | I]`` less the columns already pivoted,
the reference for ``inplace_bareiss``'s integers ``(L, sign, prev, X)``.
``_pfaffian_table`` is the memo of a Pfaffian for every even index subset
that non-constant matrices took before the polynomial sweep
``poly._polynomial_sweep``; ``table_skew_inverse`` and
``table_negated_inverse`` read ``det``, ``adj`` and ``-M^-1`` off it as
``poly`` did then, the reference for the sweep's at 4-12 dims.
``scaled_adjugate_bivector`` is ``poisson_bivector`` as it was before
constant forms read ``-M^-1`` straight off elimination's integers: the
skew matrix of ``Polynomial`` entries, ``matrix_determinant`` and
``matrix_adjugate``, then every upper adjugate entry times ``-1/det``.
``full_wedge_bracket``, ``full_wedge_derived_vf`` and
``full_wedge_jacobi_bracket`` build the whole wedge of the differentials and
pair it with the generator, the route the brackets took before they wedged
only onto the generator's support.  ``legacy_generator_wedge`` is that
support wedge as it was before ``poly.merge_walk`` kept its partial sums in
packed tables: one ``Polynomial`` per merged tuple at every level.  ``ExpPoly`` and
``exp_poly_homogenization`` are the algebra of ``exp(w*s)`` weights that
``homogenization_check`` ran on before it lifted its arguments to 1-forms.
``bivector_loop_hamiltonian_vf`` is the Hamiltonian field as its own loop
over the inverse bivector's terms, before it became ``derived_vf(sym, 1,
f)``.  ``full_wedge_dirac_numerator`` and ``full_wedge_dirac_denominator``
read the Dirac form quotient off the top coefficients of ``df^dg ^ Theta ^
omega^(m-1)`` and ``Theta ^ omega^m``, before both became pairings with
``*(Theta ^ omega^(m-1))``, and ``two_condition_regularity`` is the Dirac
regularity check with the nonzero-wedge condition it dropped as implied.
``volume_route_def`` builds the 2k-bracket the way ``omega_power_bracket``
and ``derived_vf`` did before they paired against the divided power
``Lambda^k/k!``: the generator of ``k! * omega^(n-k)/(n-k)!`` against the
volume ``omega^n/n!``.  ``volume_route_binary`` is the same route at
``k = 1`` for any nondegenerate 2-form, closed or not, the bracket
``check-jacobi`` took before it paired with the inverse bivector.
``legacy_parse_tensor`` and ``legacy_parse_value`` are the same kind of
reference for ``formcalc.parsing``, and ``LegacyPolynomial`` with
``legacy_exact_divide`` (exponent tuples as keys, every coefficient a
``Fraction``) for the packed-key kernel of ``formcalc.poly``.
``legacy_polynomial_str`` is ``Polynomial.__str__`` as it was before it
printed each packed key from memoized halves: a loop over every coordinate
field of every key, and the text grown by ``+=``.
``chained_wedge`` is ``wedge_all`` as it was before it wedged its factors
in fewest-new-indices order: the left-to-right chain, the reference for
the reordered wedge's value, sign and errors.
``permutation_sign`` is the sign of sorting an index sequence, counted by
inversions without ``formcalc``: the reference for the package's one merge
rule, ``formcalc.exterior._merge_sign``.  ``compose`` substitutes polynomials
for coordinates, and ``pulled_back_form`` is the standard form pulled back by
a random triangular polynomial map: a symplectic form polynomial off the
Darboux chart, whose brackets are the standard ones composed with the map.
"""

import re
from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

from formcalc import (
    BracketDef,
    Chart,
    ChartMismatch,
    Form,
    InvalidArgument,
    Multivector,
    NotDivisible,
    Polynomial,
    RationalExpr,
    coordinate_form,
    coordinates,
    differential,
    form_power,
    matrix_adjugate,
    matrix_determinant,
    pair,
    parse_expr,
    wedge,
    wedge_all,
)
from formcalc.brackets import power_bracket_def
from formcalc.errors import checked
from formcalc.exterior import _accumulate, _Graded, _normalize_index_tuple, _summed
from formcalc.parsing import _error
from formcalc.poly import _BITS, _MASK, sum_of_products
from formcalc.suites import _random_graded, _random_poly


def qp(chart: Chart):
    """Coordinates of a darboux chart, split into (qs, ps)."""
    n = chart.dim // 2
    qs = [Polynomial.variable(chart, chart.names[i]) for i in range(n)]
    ps = [Polynomial.variable(chart, chart.names[n + i]) for i in range(n)]
    return qs, ps


def rand_poly(rng, chart, degree=2, nterms=3, span=3) -> Polynomial:
    return _random_poly(rng, chart, degree, nterms, span)


def rand_nonzero_poly(rng, chart, **kwargs) -> Polynomial:
    while True:
        p = rand_poly(rng, chart, **kwargs)
        if not p.is_zero():
            return p


def rand_form(rng, chart, grade, density=0.6) -> Form:
    return _random_graded(Form, rng, chart, grade, density, span=3)


def rand_multivector(rng, chart, grade, density=0.6) -> Multivector:
    return _random_graded(Multivector, rng, chart, grade, density, span=3)


def compose(f: Polynomial, phi: Sequence[Polynomial]) -> Polynomial:
    """``f∘phi``: ``phi[i]`` substituted for coordinate ``i`` of ``f``."""
    chart = phi[0].chart
    result = Polynomial.zero(chart)
    for exponent, coefficient in f.items():
        term = Polynomial.constant(chart, coefficient)
        for component, power in zip(phi, exponent):
            term = term * component ** power
        result = result + term
    return result


def pulled_back_form(rng, chart, degree=2, nterms=2) -> tuple[list[Polynomial], Form]:
    """A random triangular map ``phi`` of ``chart`` and ``sum_j dP_j ^ dQ_j``
    for ``(Q, P) = phi``, the pullback of the standard form by ``phi``.

    In a shuffled coordinate order, each coordinate of ``phi`` is that
    coordinate plus ``nterms`` monomials of degree 1..``degree`` in the
    earlier ones.  So ``det Dphi = 1``: the form is closed, and its matrix has
    polynomial entries and determinant 1.
    """
    xs = coordinates(chart)
    order = rng.sample(range(chart.dim), chart.dim)
    phi = list(xs)
    for position, i in enumerate(order[1:], 1):
        earlier = [xs[j] for j in order[:position]]
        for _ in range(nterms):
            monomial = Polynomial.constant(chart, rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, degree)):
                monomial = monomial * rng.choice(earlier)
            phi[i] = phi[i] + monomial
    n = chart.dim // 2
    omega = Form.zero(chart, 2)
    for j in range(n):
        omega = omega + wedge(differential(phi[n + j]), differential(phi[j]))
    return phi, omega


def permutation_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """``sorted(seq)`` as a tuple and the parity of its inversions, ``+1`` or ``-1``."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return tuple(sorted(seq)), (-1 if inversions % 2 else 1)


def laplace_determinant(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> Polynomial:
    """Determinant of a square matrix of polynomials, by memoized expansion."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    one = Polynomial.constant(chart, 1)
    memo: dict[tuple[int, tuple[int, ...]], Polynomial] = {}

    def expand(r: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return one
        key = (r, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = Polynomial.zero(chart)
        for j, col in enumerate(cols):
            entry = rows[r][col]
            if entry.is_zero():
                continue
            sub = expand(r + 1, cols[:j] + cols[j + 1:])
            term = entry * sub
            total = total + term if j % 2 == 0 else total - term
        memo[key] = total
        return total

    return expand(0, tuple(range(n)))


def laplace_adjugate(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> list[list[Polynomial]]:
    """Classical adjugate from ``m^2`` independent cofactor determinants."""
    n = len(rows)
    if n == 1:
        return [[Polynomial.constant(chart, 1)]]
    adj = [[Polynomial.zero(chart) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cofactor = laplace_determinant(minor, chart)
            if (i + j) % 2:
                cofactor = -cofactor
            adj[j][i] = cofactor
    return adj


def fraction_gauss_jordan(values: Sequence[Sequence[Fraction]]):
    """``(det, inverse)`` of a square matrix of rationals by one Gauss-Jordan
    pass on ``[M | I]`` with row pivoting, every entry a ``Fraction``; the
    inverse is ``None`` when ``det`` is zero."""
    m = len(values)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(values)]
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


def legacy_bareiss(upper: Mapping[tuple[int, int], Polynomial], m: int):
    """``inplace_bareiss`` by updating all ``2m - col - 1`` columns of ``[A | I]``
    that each row still holds at step ``col``, the row swaps made in place."""
    values = {key: entry._terms.get(0, 0) for key, entry in upper.items()}
    scale = lcm(*(x.denominator for x in values.values()))
    rows = [[0] * m + [int(i == j) for j in range(m)] for i in range(m)]
    for (i, j), x in values.items():
        rows[i][j] = x.numerator * (scale // x.denominator)
        rows[j][i] = -rows[i][j]
    sign = prev = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][0]), None)
        if pivot is None:
            return None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        lead, *pivot_row = rows[col]
        for r in range(m):
            if r != col:
                factor, *row = rows[r]
                rows[r] = [(lead * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        rows[col] = pivot_row
        prev = lead
    return scale, sign, prev, rows


def inplace_bareiss(upper: Mapping[tuple[int, int], Polynomial], m: int):
    """Bareiss's fraction-free Gauss-Jordan pass (Math. Comp. 22, 1968) on
    ``[A | I]``, ``A = L*M`` for the ``m x m`` skew matrix ``M`` with upper
    triangle ``upper`` of constants and the lcm ``L`` of their denominators.
    Each step, with row pivoting, sets every other row to ``(lead*x -
    factor*y) // prev``, exact as every entry stays a minor of ``[A | I]``.

    In place, a row holds ``m`` integers: before step ``col``, ``X``'s
    columns ``0..col-1``, then the left block's ``col..m-1``.  The right
    block's other columns are ``prev`` times an identity column in the rows
    at or below ``col`` and zero above, so none is stored: the step writes
    ``X``'s column ``col`` over the pivot column, which no later step reads,
    as ``-factor`` in every other row and ``prev`` in the pivot row.  A row
    swap only exchanges two rows' identity columns, so the swaps are applied
    to ``X``'s columns at the end, last one first.  ``None`` if ``M`` is
    singular, else ``(L, sign, prev, X)`` for the final ``[prev*I | X] =
    [sign*det(A)*I | sign*adj(A)]``."""
    values = {key: entry._terms.get(0, 0) for key, entry in upper.items()}
    scale = lcm(*(x.denominator for x in values.values()))
    rows = [[0] * m for _ in range(m)]
    for (i, j), x in values.items():
        rows[i][j] = x.numerator * (scale // x.denominator)
        rows[j][i] = -rows[i][j]
    swaps = []
    prev = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            return None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            swaps.append((col, pivot))
        pivot_row = rows[col]
        lead = pivot_row[col]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                row = rows[r] = [(lead * x - factor * y) // prev for x, y in zip(row, pivot_row)]
                row[col] = -factor
        pivot_row[col] = prev
        prev = lead
    for col, pivot in reversed(swaps):
        for row in rows:
            row[col], row[pivot] = row[pivot], row[col]
    return scale, -1 if len(swaps) % 2 else 1, prev, rows


def scaled_adjugate_bivector(omega: Form) -> Multivector | None:
    """The inverse bivector of the 2-form ``omega`` as ``adj(M) * (-1/det(M))``
    over the ``Polynomial`` coefficient matrix ``M``; ``None`` when ``det(M)``
    is zero."""
    chart = omega.chart
    m = chart.dim
    matrix = [[Polynomial.zero(chart)] * m for _ in range(m)]
    for (i, j), coefficient in omega.terms.items():
        matrix[i][j] = coefficient
        matrix[j][i] = -coefficient
    det = matrix_determinant(matrix, chart)
    if det.is_zero():
        return None
    adj = matrix_adjugate(matrix, chart)
    scale = Fraction(-1) / det.constant_value()
    return Multivector(chart, 2, {(i, j): adj[i][j] * scale for i in range(m) for j in range(i + 1, m)
                                  if not adj[i][j].is_zero()})


def _pfaffian_table(upper: Mapping[tuple[int, int], Polynomial], chart: Chart):
    """``pfaffian(mask)``: the Pfaffian of the skew submatrix on the rows and
    columns whose bits are set in ``mask`` (an even count), by expansion along
    its first index ``i``, with one memo for every sub-Pfaffian.  It reads the
    entries ``upper.get((i, j))``, ``j > i``, above the diagonal only."""
    memo: dict[int, Polynomial] = {0: Polynomial.constant(chart, 1)}

    def pfaffian(mask: int) -> Polynomial:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        i = low.bit_length() - 1
        rest = bits = mask ^ low
        products = []
        negate = False
        while bits:
            bit = bits & -bits
            bits ^= bit
            entry = upper.get((i, bit.bit_length() - 1))
            if entry is not None and not entry.is_zero():
                products.append((entry, pfaffian(rest ^ bit), negate))
            negate = not negate
        total = memo[mask] = sum_of_products(products, chart)
        return total

    return pfaffian


def table_skew_inverse(upper: Mapping[tuple[int, int], Polynomial], m: int,
                       chart: Chart) -> tuple[Polynomial, list]:
    """``(det(M), adjugate(M))`` of the ``m x m`` skew ``M`` with upper
    triangle ``upper`` by ``_pfaffian_table``, as ``poly._skew_inverse``
    computed them for non-constant entries before the polynomial sweep:
    ``Pf(M)^2`` beside the signed ``Pf(M) * Pf(minor)`` entries, and the zero
    adjugate when ``Pf(M)`` is zero."""
    zero = Polynomial.zero(chart)
    adj = [[zero] * m for _ in range(m)]
    pfaffian = _pfaffian_table(upper, chart)
    full = (1 << m) - 1
    pf = pfaffian(full)
    if pf.is_zero():
        return zero, adj
    for i, j in combinations(range(m), 2):
        minor = pfaffian(full ^ (1 << i) ^ (1 << j))
        value = sum_of_products(((pf, minor, (i + j) % 2 == 1),), chart)
        adj[i][j] = value
        adj[j][i] = -value
    return pf * pf, adj


def table_negated_inverse(det: Polynomial, adj: Sequence[Sequence[Polynomial]]) -> dict:
    """The nonzero upper entries of ``-M^-1`` from ``table_skew_inverse``'s
    ``(det, adj)``, as the adjugate times ``-1/det``; ``{}`` unless ``det`` is
    a nonzero constant."""
    if not det.is_constant() or det.is_zero():
        return {}
    scale = Fraction(-1) / det.constant_value()
    return {(i, j): adj[i][j] * scale for i, j in combinations(range(len(adj)), 2) if not adj[i][j].is_zero()}


def chained_wedge(factors: Sequence):
    """``wedge_all`` as a left-to-right chain of ``wedge``, which checks each
    factor as the chain reaches it."""
    if not checked(factors, Sequence, "wedge factors"):
        raise InvalidArgument("need at least one factor")
    result = checked(factors[0], _Graded, "wedge factor")
    for factor in factors[1:]:
        result = wedge(result, factor)
    return result


def full_wedge_bracket(bdef, *functions) -> Polynomial:
    """A constant-volume bracket as ``pair(wedge_all(dfs), generator)``."""
    return pair(wedge_all([differential(f) for f in functions]), bdef.generator)


def volume_route_def(sym, k: int):
    """The 2k-bracket's definition by the volume route,
    ``power_bracket_def(sym, k)``, built once per structure and ``k``."""
    return sym.cached(("volume_route", k), lambda: power_bracket_def(sym, k))


def volume_route_binary(omega) -> BracketDef:
    """The binary bracket of ``omega^(n-1)/(n-1)!`` against ``omega^n/n!``,
    with no closedness required."""
    n = omega.chart.dim // 2
    below = form_power(omega, n - 1)
    volume = wedge(below, omega) * Fraction(1, factorial(n))
    return BracketDef(volume, below * Fraction(1, factorial(n - 1)))


def full_wedge_derived_vf(sym, k: int, *functions) -> Multivector:
    """``derived_vf`` as one full-wedge pairing per coordinate against the
    volume route's generator, scaled by ``1/k!``."""
    generator = volume_route_def(sym, k).generator * Fraction(1, factorial(k))
    chart = sym.chart
    fixed = wedge_all([differential(f) for f in functions])
    return Multivector(chart, 1, {
        (i,): pair(wedge(fixed, coordinate_form(chart, name)), generator)
        for i, name in enumerate(chart.names)
    })


def bivector_loop_hamiltonian_vf(sym, f) -> Multivector:
    """``X_f``: each term ``L_ab e(a)^e(b)`` of the inverse bivector adds
    ``L_ab * df/dx_a`` to component ``b`` and ``-L_ab * df/dx_b`` to ``a``."""
    components = {}
    for (a, b), coefficient in sym.bivector.terms.items():
        components[(b,)] = components.get((b,), 0) + coefficient * f.diff(a)
        components[(a,)] = components.get((a,), 0) - coefficient * f.diff(b)
    return Multivector(sym.chart, 1, components)


def full_wedge_dirac_numerator(cs, f, g) -> Polynomial:
    """The top coefficient of ``df^dg ^ Theta ^ omega^(m-1)``, ``m = n - k``,
    with every wedge built in full."""
    m = cs.sym.n - cs.half_count
    factor = wedge(wedge_all([differential(theta) for theta in cs.constraints]), cs.sym.power(m - 1))
    return wedge(wedge(differential(f), differential(g)), factor).coefficient(tuple(range(cs.chart.dim)))


def full_wedge_dirac_denominator(cs) -> Polynomial:
    """The top coefficient of ``Theta ^ omega^m``, ``m = n - k``, with every
    wedge built in full."""
    m = cs.sym.n - cs.half_count
    factors = [differential(theta) for theta in cs.constraints] + [cs.sym.omega] * m
    return wedge_all(factors).coefficient(tuple(range(cs.chart.dim)))


def two_condition_regularity(cs) -> bool:
    """Both second-class conditions as ``regularity_check`` tested them
    before it read the determinant alone: ``det C != 0`` and a nonzero
    wedge of the constraint differentials."""
    return not cs.determinant.is_zero() and not wedge_all(cs.differentials).is_zero()


def full_wedge_jacobi_bracket(jdef, f, g) -> Polynomial:
    """``L(f,g) + f*X(g) - g*X(f)`` with ``L(f,g)`` paired against ``df ^ dg``."""
    df, dg = differential(f), differential(g)
    return pair(wedge(df, dg), jdef.bivector) + f * pair(dg, jdef.field) - g * pair(df, jdef.field)


def legacy_generator_wedge(generator, forms) -> dict:
    """``generator.wedge(forms)`` as the level loop it was before the walk
    moved into ``poly.merge_walk``: one ``Polynomial`` per merged tuple at
    every level, each the fused sum of its ``(value, c, odd)`` products,
    starting from the constant 1 on the empty tuple.  It reads and fills
    ``generator``'s merge table as the walk does."""
    chart = generator.target.chart
    table = generator._table
    current = {(): Polynomial.constant(chart, 1)}
    for form in forms:
        groups: dict = {}
        for key, value in current.items():
            for i, merged, odd in table.get(key) or generator._fill(key):
                c = form.terms.get((i,))
                if c is not None:
                    groups.setdefault(merged, []).append((value, c, odd))
        current = _summed(groups, chart)
        if not current:
            break
    return current


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
        # each weight keeps its own term, so nothing is merged
        out: dict[int, Polynomial] = {}
        for weight, coefficient in self.terms.items():
            value = coefficient.diff(coordinate)
            if coordinate == self.s_index:
                value = coefficient * weight + value
            if not value.is_zero():
                out[weight] = value
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


def exp_poly_homogenization(jdef, f: Polynomial, g: Polynomial, s_name: str = "s") -> ExpPoly:
    """``exp(-2s)`` times the bivector ``L + e(s)^X`` evaluated on
    ``exp(s)*f`` and ``exp(s)*g``, on the chart extended by ``s_name``,
    every step in :class:`ExpPoly` arithmetic."""
    extended = jdef.chart.extended(s_name)
    s_index = extended.dim - 1
    # entries of the extended bivector, as (i, j, coefficient) with i < j
    entries = [(i, j, c.extended_to(extended)) for (i, j), c in jdef.bivector.terms.items()]
    for (i,), c in jdef.field.terms.items():
        # e(s)^e(x_i) = -e(x_i)^e(s)
        entries.append((i, s_index, -c.extended_to(extended)))
    u = ExpPoly.from_polynomial(f.extended_to(extended), s_index, weight=1)
    v = ExpPoly.from_polynomial(g.extended_to(extended), s_index, weight=1)
    total = ExpPoly(extended, s_index)
    for i, j, c in entries:
        value = u.diff(i) * v.diff(j) - u.diff(j) * v.diff(i)
        total = total + ExpPoly.from_polynomial(c, s_index) * value
    return ExpPoly.exponential(extended, s_index, -2) * total


# The token-slicing tensor parser and the ``(num) / (den)`` text scan that
# ``formcalc.parsing`` used before it read every value with one
# recursive-descent parser: the reference for the parser property tests.
# Coefficient substrings still go through ``parse_expr``.  It keeps its own
# tokenizer, one ``_LegacyToken`` namedtuple per token, as the parser had it.

_LEGACY_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.)"
)
_LegacyToken = namedtuple("_LegacyToken", "kind text start")


def _legacy_tokenize(text: str) -> list:
    tokens = [_LegacyToken(match.lastgroup, match.group(), match.start())
              for match in _LEGACY_TOKEN_RE.finditer(text) if match.lastgroup != "ws"]
    for token in tokens:
        if token.kind == "bad":
            raise _error(text, token.start, f"unexpected character {token.text!r}")
    return tokens


def _end(token) -> int:
    return token.start + len(token.text)


def _atom_at(tokens, i: int) -> bool:
    return (
        tokens[i].kind == "name"
        and tokens[i].text in ("d", "e")
        and tokens[i + 1].text == "("
    )


def _split_terms(tokens):
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


def legacy_parse_tensor(text: str, chart: Chart, env=None):
    tokens = _legacy_tokenize(text)
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
                raise _error(text, _end(token), "expected '('")
            name_token = piece[i + 2] if i + 2 < len(piece) else None
            if name_token is None or name_token.kind != "name":
                raise _error(text, _end(piece[i + 1]), "expected a coordinate name")
            if name_token.text not in chart:
                raise _error(text, name_token.start, f"unknown coordinate {name_token.text!r}")
            if i + 3 >= len(piece) or piece[i + 3].text != ")":
                raise _error(text, _end(name_token), "expected ')'")
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
            coeff_text = text[prefix[0].start:_end(prefix[-1])]
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

        key, parity = _normalize_index_tuple(atoms, chart.dim)
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


def legacy_parse_value(text: str, chart: Chart, env=None):
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
    return legacy_parse_tensor(stripped, chart, env)


# The polynomial kernel ``formcalc.poly`` used before it packed exponent
# vectors into int keys: tuple keys, ``Fraction`` coefficients, a ``min()``
# scan per division step.  The reference for the kernel property tests.

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


class LegacyPolynomial:
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

    @classmethod
    def zero(cls, chart: Chart) -> "LegacyPolynomial":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, value) -> "LegacyPolynomial":
        c = _coerce(value)
        if not c:
            return cls(chart)
        return cls(chart, {(0,) * chart.dim: c})

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

    def _as_operand(self, other) -> "LegacyPolynomial | None":
        if isinstance(other, LegacyPolynomial):
            if other.chart != self.chart:
                raise ChartMismatch("operands live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return LegacyPolynomial.constant(self.chart, other)
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
        result = LegacyPolynomial.__new__(LegacyPolynomial)
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
        result = LegacyPolynomial.__new__(LegacyPolynomial)
        result.chart = self.chart
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = _coerce(other)
            result = LegacyPolynomial.__new__(LegacyPolynomial)
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
        result = LegacyPolynomial.__new__(LegacyPolynomial)
        result.chart = self.chart
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = LegacyPolynomial.constant(self.chart, 1)
        for _ in range(power):
            result = result * self
        return result

    def diff(self, coordinate: int) -> "LegacyPolynomial":
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
        result = LegacyPolynomial.__new__(LegacyPolynomial)
        result.chart = self.chart
        result.terms = out
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LegacyPolynomial.constant(self.chart, other)
        if not isinstance(other, LegacyPolynomial):
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


def legacy_polynomial_str(p: Polynomial) -> str:
    """``str(p)`` by a loop over the coordinate fields of each packed key."""
    if not p._terms:
        return "0"
    names = p.chart.names
    top = _BITS * len(names)
    fields = [(name, top - _BITS * (i + 1)) for i, name in enumerate(names)]
    pieces = []
    for key in sorted(p._terms, reverse=True):
        coefficient = p._terms[key]
        factors = []
        left = key >> top  # degree not yet printed
        for name, shift in fields:
            if not left:
                break
            e = key >> shift & _MASK
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
                left -= e
        monomial = "*".join(factors)
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


def legacy_exact_divide(a: LegacyPolynomial, b: LegacyPolynomial) -> LegacyPolynomial:
    """Return ``q`` with ``q * b == a``; raise :class:`NotDivisible` otherwise."""
    if a.chart != b.chart:
        raise ChartMismatch("operands live on different charts")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LegacyPolynomial.zero(a.chart)

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
    return LegacyPolynomial(a.chart, quotient)
