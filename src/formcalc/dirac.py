"""Dirac brackets for second-class constraints, by two independent routes.

The matrix route is the classical correction formula

    {f, g}_D = {f, g} - {f, theta_i} c_ij {theta_j, g},

with ``(c_ij)`` the inverse of the constraint bracket matrix, carried exactly
as adjugate over determinant.  The form route divides the coefficients of two
top forms and rescales by a constant: with ``Theta = dtheta_1^...^dtheta_2k``
and ``m = n - k``,

    {f, g}_D = m * (df^dg ^ Theta ^ omega^{m-1}) / (Theta ^ omega^m).

Both routes pair through :class:`~formcalc.exterior._Generator`: the matrix
route with the inverse bivector, the form route with ``L = *(Theta ^
omega^{m-1})``, built once per constraint set.  By the pairing identity in
:mod:`formcalc.exterior`, the numerator is ``<df^dg, L>`` and the
denominator ``<omega, L>``.  Every entry point takes the symplectic
structure from its :class:`ConstraintSet`, which is built on it, so no call
can pair a constraint set with another form.

Derivation.  At a point, the differentials ``dtheta_i`` span a subspace ``W``
of the cotangent space that is symplectic for the bivector (its Gram matrix
is the constraint matrix), so the cotangent space splits as ``W`` plus its
bivector-orthogonal complement ``W'``, of dimension ``2m``.  The form splits
accordingly as ``omega = omega_W + omega'`` with ``omega_W`` in ``Lambda^2 W``
and ``omega'`` in ``Lambda^2 W'``, and ``df = a + w`` with ``a`` in ``W'``
and ``w`` in ``W``.  Every factor from ``W`` dies against ``Theta``, so

    df^dg ^ Theta ^ omega^{m-1} = a^b ^ omega'^{m-1} ^ Theta,
    Theta ^ omega^m             = omega'^m ^ Theta.

On ``W'`` the binary bracket is normalized by
``a^b ^ omega'^{m-1}/(m-1)! = {a, b} * omega'^m/m!`` (the ``k = 1`` case of
:func:`~formcalc.brackets.omega_power_bracket`), and ``{a, b}`` is the
bracket of the projections of ``df`` and ``dg``, which is ``{f, g}_D``.  So
the quotient is ``{f, g}_D * (m-1)!/m! = {f, g}_D / m``.
:func:`calibrate_normalization` measures the constant on a reference pair
instead of assuming it, and the tests pin it to ``1/(n-k)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .brackets import _differentials, _divided_power
from .chart import Chart
from .errors import (
    AlgebraError,
    CalibrationFailure,
    DegenerateStructure,
    GradeMismatch,
    checked,
)
from .exterior import SymplecticData, _Generator, _star, differential, pair, wedge, wedge_all
from .poly import Polynomial, RationalExpr, _skew_inverse, coordinates, sum_of_products


class ConstraintSet:
    """An even-length list of constraint functions on a symplectic chart.

    The constraint differentials, the pairwise bracket matrix (its upper
    triangle paired and inverted as it is, the rest by antisymmetry), its
    determinant and adjugate are computed at construction, so the matrix
    route makes no wedge.  The function-independent factors of the form
    route are built on first use by :meth:`form_factors`, its only wedges.
    """

    __slots__ = ("sym", "constraints", "half_count", "differentials", "bracket_matrix",
                 "determinant", "adjugate", "_form_factors")

    def __init__(self, sym: SymplecticData, constraints: Sequence[Polynomial]):
        poisson = _divided_power(sym, 1)
        constraints = tuple(checked(constraints, Iterable, "constraint list"))
        if len(constraints) < 2 or len(constraints) % 2:
            raise DegenerateStructure("constraint count must be even and at least 2")
        chart = sym.chart
        for theta in constraints:
            checked(theta, Polynomial, "constraint", chart=chart)
        dthetas = [differential(theta) for theta in constraints]
        size = len(constraints)
        upper = {(i, j): poisson.pair([dthetas[i], dthetas[j]]) for i, j in combinations(range(size), 2)}
        matrix = [[Polynomial.zero(chart)] * size for _ in range(size)]
        for (i, j), value in upper.items():
            matrix[i][j] = value
            matrix[j][i] = -value
        self.sym = sym
        self.constraints = constraints
        self.half_count = size // 2
        self.differentials = dthetas
        self.bracket_matrix = matrix
        self.determinant, self.adjugate = _skew_inverse(upper, size, chart)
        self._form_factors = None

    @property
    def chart(self) -> Chart:
        return self.sym.chart

    def form_factors(self) -> tuple[_Generator, Polynomial]:
        """``(generator of L, <omega, L>)``, ``L = *(Theta ^ omega^{m-1})``,
        ``m = n - k``: the argument-free parts of the form route, which needs
        ``k < n``.  Its only wedges are ``Theta`` and ``Theta ^ omega^{m-1}``."""
        if self._form_factors is None:
            m = self.sym.n - self.half_count
            if m < 1:
                raise GradeMismatch("need strictly fewer constraint pairs than degrees of freedom")
            factor = _star(wedge(wedge_all(self.differentials), self.sym.power(m - 1)), Fraction(1))
            reference = pair(self.sym.omega, factor)
            if reference.is_zero():
                raise DegenerateStructure("reference top form vanishes")
            self._form_factors = (_Generator(factor), reference)
        return self._form_factors


def regularity_check(cs: ConstraintSet) -> bool:
    """Whether the constraints are second class: ``det C != 0``.  That implies
    ``Theta != 0``, so ``Theta`` is not built: ``sum_i a_i dtheta_i = 0`` with
    ``a != 0`` gives ``sum_i a_i C_ij = 0``, so ``a^T C = 0`` and ``det C = 0``."""
    return not checked(cs, ConstraintSet, "constraint set").determinant.is_zero()


def _require_regular(cs: ConstraintSet):
    if not regularity_check(cs):
        raise DegenerateStructure("constraint set fails the regularity conditions")


def dirac_bracket_matrix(cs: ConstraintSet, f: Polynomial, g: Polynomial) -> RationalExpr:
    """The corrected bracket, with denominator the constraint determinant.

    ``df`` and ``dg`` are taken once and paired with the stored
    ``dtheta_i``; with ``{theta_j, g} = -{g, theta_j}`` the numerator is
    ``{f, g} det + sum_i {f, theta_i} sum_j adj_ij {g, theta_j}``, each sum
    one :func:`~formcalc.poly.sum_of_products`.
    """
    _require_regular(cs)
    chart, poisson = cs.chart, _divided_power(cs.sym, 1)
    df, dg = _differentials(chart, (f, g))
    products = [(poisson.pair([df, dg]), cs.determinant, False)]
    g_theta = [poisson.pair([dg, dtheta]) for dtheta in cs.differentials]
    for dtheta, row in zip(cs.differentials, cs.adjugate):
        f_theta = poisson.pair([df, dtheta])
        if not f_theta.is_zero():
            inner = sum_of_products([(entry, value, False) for entry, value in zip(row, g_theta)], chart)
            products.append((f_theta, inner, False))
    return RationalExpr(sum_of_products(products, chart), cs.determinant)


def _form_quotient(cs: ConstraintSet, f: Polynomial, g: Polynomial) -> RationalExpr:
    """``(df^dg ^ Theta ^ omega^{m-1}) / (Theta ^ omega^m)``, unscaled."""
    _require_regular(cs)
    generator, reference = cs.form_factors()
    return RationalExpr(generator.pair(_differentials(cs.chart, (f, g))), reference)


def calibrate_normalization(cs: ConstraintSet) -> Fraction:
    """Measure the constant ``c`` with form-quotient = c * matrix-bracket.

    Measures on the first unordered coordinate pair with a nonzero matrix
    bracket; the ratio must come out as a rational constant or calibration
    fails loudly.  The derivation in the module docstring gives
    ``c = 1/(n-k)``.  Coordinate pairs suffice: where ``det C != 0`` the
    Dirac bivector has rank ``2m = 2(n-k) >= 2`` (the form route needs
    ``m >= 1``), so some coordinate pair has a nonzero bracket, and a
    reversed pair only negates it.
    """
    _require_regular(cs)
    cs.form_factors()  # the form route's own errors, before any pair is tried
    for f, g in combinations(coordinates(cs.chart), 2):
        mb = dirac_bracket_matrix(cs, f, g)
        if not mb.is_zero():
            break
    q = _form_quotient(cs, f, g)
    try:
        return (q / mb).as_constant()
    except AlgebraError as exc:
        raise CalibrationFailure(f"normalization ratio is not a constant: {exc}") from exc


def dirac_bracket_form(cs: ConstraintSet, f: Polynomial, g: Polynomial) -> RationalExpr:
    """Dirac bracket from top-form division, times the closed-form ``n - k``."""
    return _form_quotient(cs, f, g) * (cs.sym.n - cs.half_count)
