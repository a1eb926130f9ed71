"""Brackets on symplectic forms that are polynomial off the Darboux chart.

``pulled_back_form`` gives a triangular polynomial map ``phi`` and the form
``phi^*omega0``.  ``phi`` carries that form to the standard one, so brackets
are natural under it (Arnold, *Mathematical Methods of Classical
Mechanics*, 1989): a bracket of the composed functions on the pulled-back
form is the standard bracket composed with ``phi``.  These forms have
non-constant matrix entries, so their inversion takes the 2x2 Pfaffian
sweep over the polynomials, ``poly._polynomial_sweep``; the check that
``-M^-1`` inverts the form matrix draws up to 10 dims.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    Polynomial,
    SymplecticData,
    darboux_chart,
    derived_vf,
    differential,
    jacobiator,
    omega_power_bracket,
    pair,
    standard_form,
)

from tests.helpers import compose, pulled_back_form, rand_poly


@st.composite
def pulled_back(draw, halves=st.integers(2, 4)):
    """``(phi, sym, standard, functions)`` on a chart of ``2 * halves``
    dimensions, by default 4, 6 or 8."""
    chart = darboux_chart(draw(halves))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    phi, omega = pulled_back_form(rng, chart)
    functions = [rand_poly(rng, chart) for _ in range(4)]
    return phi, SymplecticData(omega), SymplecticData(standard_form(chart)), functions


def _matrix(tensor):
    m = tensor.chart.dim
    rows = [[Polynomial.zero(tensor.chart)] * m for _ in range(m)]
    for (i, j), coefficient in tensor.terms.items():
        rows[i][j], rows[j][i] = coefficient, -coefficient
    return rows


@settings(max_examples=25, deadline=None)
@given(pulled_back(), st.sampled_from([1, 2]))
def test_power_bracket_is_natural(case, k):
    phi, sym, standard, functions = case
    composed = [compose(f, phi) for f in functions[:2 * k]]
    assert omega_power_bracket(sym, k, *composed) == compose(omega_power_bracket(standard, k, *functions[:2 * k]), phi)


@settings(max_examples=25, deadline=None)
@given(pulled_back(), st.sampled_from([1, 2]))
def test_derived_field_is_natural(case, k):
    phi, sym, standard, functions = case
    *fixed, h = functions[:2 * k]
    field = derived_vf(sym, k, *(compose(f, phi) for f in fixed))
    expected = pair(differential(h), derived_vf(standard, k, *fixed))
    assert pair(differential(compose(h, phi)), field) == compose(expected, phi)


@settings(max_examples=25, deadline=None)
@given(pulled_back())
def test_inverse_bivector_satisfies_jacobi(case):
    _, sym, _, functions = case
    assert jacobiator(sym.bivector, *functions[:3]).is_zero()


@settings(max_examples=25, deadline=None)
@given(pulled_back(st.integers(2, 5)))
def test_bivector_matrix_is_minus_the_inverse_of_the_form_matrix(case):
    _, sym, _, _ = case
    form, bivector = _matrix(sym.omega), _matrix(sym.bivector)
    m = len(form)
    for i in range(m):
        for j in range(m):
            entry = sum((form[i][k] * bivector[k][j] for k in range(m)), Polynomial.zero(sym.chart))
            assert entry == (-1 if i == j else 0)
