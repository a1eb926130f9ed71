"""The graded bracket of multivector fields and structure tests built on it.

The bracket is pinned by four properties:

* ``[X, f] = X(f)`` for a vector field ``X`` and a function ``f``;
* ``[X, Y]`` is the Lie bracket of vector fields;
* graded Leibniz rule ``[A, B^C] = [A,B]^C + (-1)^((a-1)*b) B^[A,C]``;
* graded antisymmetry ``[A, B] = -(-1)^((a-1)*(b-1)) [B, A]``,

where ``a``, ``b`` are the grades.  These force the coordinate formula

    [A, B] = (-1)^(a-1) * sum_i (delta_i A)^(d_i B)  -  sum_i (d_i A)^(delta_i B)

with ``delta_i`` the interior product against ``dx_i`` (index removal with
parity sign) and ``d_i`` the coefficientwise partial derivative.  A grade-2
multivector generates a bracket satisfying the Jacobi identity exactly when
it commutes with itself under this bracket.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradeMismatch, checked
from .exterior import (
    Form,
    Multivector,
    _contract_single,
    _merge_products,
    _summed,
    _top_coefficient,
    contract,
    exterior_derivative,
    wedge,
)
from .poly import _partials


def _diff_terms(field: Multivector) -> dict:
    """``{i: d_i field}``, each the ``{key: partial}`` of the nonzero
    partials of ``field``'s coefficients, from one :func:`_partials` pass
    per coefficient."""
    out: dict = {}
    for key, coefficient in field.terms.items():
        for i, dc in _partials(coefficient).items():
            out.setdefault(i, {})[key] = dc
    return out


def schouten(a: Multivector, b: Multivector) -> Multivector:
    """The graded bracket ``[a, b]`` of two multivector fields, by the
    coordinate formula.  Each coefficient's partials are read once per call,
    and once in all when ``b is a`` (as in :func:`is_n_poisson`)."""
    chart = checked(a, Multivector, "schouten argument").chart
    checked(b, Multivector, "schouten argument", chart=chart)
    grade = a.grade + b.grade - 1
    if grade < 0:
        return Multivector.zero(chart, 0)
    diff_a = _diff_terms(a)
    diff_b = diff_a if b is a else _diff_terms(b)
    groups: dict = {}
    for i in range(chart.dim):
        if i in diff_b and (delta_a := _contract_single(a.terms, i)):
            # (-1)^(a-1) * sum_i (delta_i A)^(d_i B)
            _merge_products(groups, delta_a, diff_b[i], flip=a.grade % 2 == 0)
        if i in diff_a:
            # - sum_i (d_i A)^(delta_i B)
            _merge_products(groups, diff_a[i], _contract_single(b.terms, i), flip=True)
    return Multivector._of(chart, min(grade, chart.dim), _summed(groups, chart))


_POISSON_ROLE = "argument of the Poisson checks, which take a multivector,"


def is_poisson(bivector: Multivector) -> bool:
    """True exactly when the grade-2 field commutes with itself."""
    return is_n_poisson(checked(bivector, Multivector, _POISSON_ROLE, grade=2))


def is_n_poisson(field: Multivector) -> bool:
    """Self-commutation test for an even-grade multivector field."""
    if checked(field, Multivector, _POISSON_ROLE).grade % 2:
        raise GradeMismatch("is_n_poisson needs an even-grade multivector")
    return schouten(field, field).is_zero()


def _contract_or_zero(field: Multivector, a: Form) -> Form:
    # contraction past the form grade is zero, not an error, inside identities
    if field.grade > a.grade:
        return Form.zero(a.chart, 0)
    return contract(field, a)


def volume_poisson_criterion(bivector: Multivector, volume: Form) -> bool:
    """Volume-form test for the Jacobi identity of a bivector's bracket.

    Evaluates ``d i_{L^L} V == 2 i_L d i_L V`` exactly; for a nondegenerate
    volume this is equivalent to ``is_poisson``.
    """
    checked(bivector, Multivector, "bivector", grade=2)
    _top_coefficient(volume)
    left = exterior_derivative(contract(wedge(bivector, bivector), volume))
    right = _contract_or_zero(bivector, exterior_derivative(contract(bivector, volume))) * 2
    return left == right


def schouten_volume_identity_check(l1: Multivector, l2: Multivector, volume: Form) -> bool:
    """Cross-validation of the graded bracket against contraction and d.

    For bivectors and a volume form (so ``dV = 0``) the bracket satisfies,
    with this module's sign conventions,

        i_{[L1,L2]} V  ==  d i_{L2^L1} V  -  i_{L1} d i_{L2} V  -  i_{L2} d i_{L1} V.
    """
    for field in (l1, l2):
        checked(field, Multivector, "bivector", grade=2)
    _top_coefficient(volume)
    left = contract(schouten(l1, l2), volume)
    right = exterior_derivative(contract(wedge(l2, l1), volume))
    right = right - _contract_or_zero(l1, exterior_derivative(contract(l2, volume)))
    right = right - _contract_or_zero(l2, exterior_derivative(contract(l1, volume)))
    return left == right


def jacobi_pair_check(bivector: Multivector, field: Multivector) -> bool:
    """Compatibility of a bivector with a vector field as a Jacobi structure.

    With this module's bracket signs the two conditions read ``[X, L] = 0``
    and ``[L, L] = -2 X^L``; when they hold, the bracket
    ``L(f,g) + f*X(g) - g*X(f)`` satisfies the ordinary Jacobi identity.
    """
    checked(bivector, Multivector, "Jacobi bivector", grade=2)
    checked(field, Multivector, "Jacobi field", chart=bivector.chart, grade=1)
    if not schouten(field, bivector).is_zero():
        return False
    return schouten(bivector, bivector) == wedge(field, bivector) * Fraction(-2)
