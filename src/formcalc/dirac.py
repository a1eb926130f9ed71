"""Dirac brackets for second-class constraints, by two independent routes.

The matrix route is the classical correction formula

    {f, g}_D = {f, g} - {f, theta_i} c_ij {theta_j, g},

with ``(c_ij)`` the inverse of the constraint bracket matrix, carried exactly
as adjugate over determinant.  The form route divides the coefficients of two
top forms,

    (df^dg) ^ dtheta_1^...^dtheta_2k ^ omega^{n-k-1}
    ------------------------------------------------- ,
        dtheta_1^...^dtheta_2k ^ omega^{n-k}

which reproduces the matrix bracket only up to a constant depending on
``(n, k)``.  That constant is not chosen a priori: :func:`calibrate_normalization`
measures it on a reference pair of functions (empirically it comes out as
``1/(n-k)`` on the tested grid) and the test suite asserts it is stable
across random function pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .brackets import omega_power_bracket
from .chart import Chart
from .errors import CalibrationFailure, ChartMismatch, DegenerateStructure, GradeMismatch
from .exterior import SymplecticData, differential, wedge, wedge_all
from .poly import (
    Polynomial,
    RationalExpr,
    coordinates,
    matrix_adjugate,
    matrix_determinant,
)


class ConstraintSet:
    """An even-length list of constraint functions on a symplectic chart.

    The pairwise bracket matrix, its determinant and adjugate, and the wedge
    of the constraint differentials are all computed at construction, so
    bracket evaluation afterwards is read-only.
    """

    __slots__ = ("sym", "constraints", "half_count", "bracket_matrix",
                 "determinant", "adjugate", "differential_wedge")

    def __init__(self, sym: SymplecticData, constraints: Sequence[Polynomial]):
        constraints = tuple(constraints)
        if len(constraints) < 2 or len(constraints) % 2:
            raise DegenerateStructure("constraint count must be even and at least 2")
        for theta in constraints:
            if theta.chart != sym.chart:
                raise ChartMismatch("constraint lives on a different chart")
        chart = sym.chart
        matrix = [
            [omega_power_bracket(sym, 1, a, b) for b in constraints]
            for a in constraints
        ]
        self.sym = sym
        self.constraints = constraints
        self.half_count = len(constraints) // 2
        self.bracket_matrix = matrix
        self.determinant = matrix_determinant(matrix, chart)
        self.adjugate = matrix_adjugate(matrix, chart)
        self.differential_wedge = wedge_all([differential(theta) for theta in constraints])

    @property
    def chart(self) -> Chart:
        return self.sym.chart


def regularity_check(cs: ConstraintSet) -> bool:
    """Both second-class conditions: nonzero differential wedge, nonzero det."""
    return not cs.determinant.is_zero() and not cs.differential_wedge.is_zero()


def _require_regular(cs: ConstraintSet):
    if not regularity_check(cs):
        raise DegenerateStructure("constraint set fails the regularity conditions")


def dirac_bracket_matrix(cs: ConstraintSet, f: Polynomial, g: Polynomial) -> RationalExpr:
    """The corrected bracket, with denominator the constraint determinant."""
    _require_regular(cs)
    sym = cs.sym
    base = omega_power_bracket(sym, 1, f, g)
    correction = Polynomial.zero(cs.chart)
    size = 2 * cs.half_count
    left = [omega_power_bracket(sym, 1, f, theta) for theta in cs.constraints]
    right = [omega_power_bracket(sym, 1, theta, g) for theta in cs.constraints]
    for i in range(size):
        if left[i].is_zero():
            continue
        for j in range(size):
            entry = cs.adjugate[i][j]
            if entry.is_zero() or right[j].is_zero():
                continue
            correction = correction + left[i] * entry * right[j]
    return RationalExpr(base * cs.determinant - correction, cs.determinant)


def _form_quotient(sym: SymplecticData, cs: ConstraintSet, f: Polynomial, g: Polynomial) -> RationalExpr:
    k = cs.half_count
    n = sym.n
    if k >= n:
        raise GradeMismatch("need strictly fewer constraint pairs than degrees of freedom")
    top = tuple(range(sym.chart.dim))
    reference = wedge(cs.differential_wedge, sym.power(n - k))
    if reference.is_zero():
        raise DegenerateStructure("reference top form vanishes")
    numerator_form = wedge(
        wedge(differential(f), differential(g)),
        wedge(cs.differential_wedge, sym.power(n - k - 1)),
    )
    numerator = numerator_form.terms.get(top, Polynomial.zero(sym.chart))
    return RationalExpr(numerator, reference.terms[top])


@dataclass(frozen=True)
class DiracNormalization:
    """The measured constant relating the form quotient to the matrix bracket."""

    constant: Fraction


def _low_degree_pairs(chart: Chart):
    xs = coordinates(chart)
    for f, g in combinations(xs, 2):
        yield f, g
        yield g, f
    for f in xs:
        for a, b in combinations(xs, 2):
            yield f, a * b


def calibrate_normalization(sym: SymplecticData, cs: ConstraintSet) -> DiracNormalization:
    """Measure the constant ``c`` with form-quotient = c * matrix-bracket.

    Searches low-degree monomial pairs for a nonzero reference bracket; the
    ratio must come out as a rational constant or calibration fails loudly.
    """
    _require_regular(cs)
    if cs.half_count >= sym.n:
        raise GradeMismatch("need strictly fewer constraint pairs than degrees of freedom")
    for f, g in _low_degree_pairs(sym.chart):
        mb = dirac_bracket_matrix(cs, f, g)
        if mb.is_zero():
            continue
        q = _form_quotient(sym, cs, f, g)
        try:
            constant = (q / mb).as_constant()
        except Exception as exc:
            raise CalibrationFailure(f"normalization ratio is not a constant: {exc}") from exc
        return DiracNormalization(constant)
    raise CalibrationFailure("no reference pair with a nonzero bracket was found")


def dirac_bracket_form(
    sym: SymplecticData,
    cs: ConstraintSet,
    f: Polynomial,
    g: Polynomial,
    normalization: DiracNormalization | None = None,
) -> RationalExpr:
    """Dirac bracket from top-form division, rescaled to match the matrix route."""
    _require_regular(cs)
    if cs.half_count >= sym.n:
        raise GradeMismatch("need strictly fewer constraint pairs than degrees of freedom")
    if normalization is None:
        normalization = calibrate_normalization(sym, cs)
    quotient = _form_quotient(sym, cs, f, g)
    return quotient * (Fraction(1) / normalization.constant)
