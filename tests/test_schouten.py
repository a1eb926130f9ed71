import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    Chart,
    Form,
    GradeMismatch,
    KindMismatch,
    Multivector,
    Polynomial,
    coordinate_field,
    darboux_chart,
    form_power,
    is_n_poisson,
    is_poisson,
    jacobi_pair_check,
    magnetic_form,
    poisson_bivector,
    schouten,
    schouten_volume_identity_check,
    standard_form,
    volume_poisson_criterion,
    wedge,
)

from tests.helpers import LegacyPolynomial, qp, rand_multivector, rand_poly

C4 = Chart(("x1", "x2", "x3", "x4"))
VOL4 = Form(C4, 4, {(0, 1, 2, 3): Fraction(1)})


def lie_oracle(x: Multivector, y: Multivector) -> Multivector:
    """Explicit Lie bracket of vector fields, independent of schouten()."""
    chart = x.chart
    comps = [Polynomial.zero(chart) for _ in range(chart.dim)]
    for (i,), xi in x.terms.items():
        for (j,), yj in y.terms.items():
            comps[j] = comps[j] + xi * yj.diff(i)
            comps[i] = comps[i] - yj * xi.diff(j)
    return Multivector(chart, 1, {(i,): comps[i] for i in range(chart.dim)})


def _delta(field: Multivector, i: int) -> Multivector:
    """The interior product against ``dx_i``: index removal with parity sign."""
    terms = {}
    for key, c in field.terms.items():
        if i in key:
            position = key.index(i)
            terms[key[:position] + key[position + 1:]] = -c if position % 2 else c
    return Multivector(field.chart, field.grade - 1, terms)


def _partial(field: Multivector, i: int) -> Multivector:
    """``d_i`` of every coefficient, by the per-coordinate loop of ``LegacyPolynomial.diff``."""
    chart = field.chart
    return Multivector(chart, field.grade, {
        key: Polynomial(chart, LegacyPolynomial(chart, c.terms).diff(i).terms) for key, c in field.terms.items()})


def coordinate_formula(a: Multivector, b: Multivector) -> Multivector:
    """``(-1)^(a-1) sum_i (delta_i A)^(d_i B) - sum_i (d_i A)^(delta_i B)``,
    one coordinate at a time with public wedges and sums."""
    chart = a.chart
    total = Multivector.zero(chart, min(a.grade + b.grade - 1, chart.dim))
    sign = 1 if a.grade % 2 else -1
    for i in range(chart.dim):
        total = total + wedge(_delta(a, i), _partial(b, i)) * sign - wedge(_partial(a, i), _delta(b, i))
    return total


@st.composite
def field_pairs(draw):
    """A 2-6-dim chart and two multivectors of grade 1-3 on it, the second
    the very first object in a third of the draws."""
    dim = draw(st.integers(2, 6))
    chart = Chart([f"x{i}" for i in range(dim)])
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = rand_multivector(rng, chart, draw(st.integers(1, min(3, dim))), density=0.5)
    if draw(st.integers(0, 2)) == 0:
        return a, a
    return a, rand_multivector(rng, chart, draw(st.integers(1, min(3, dim))), density=0.5)


class TestCoordinateFormulaOracle:
    """The bracket, whose partials come from one pass per coefficient, against
    the coordinate formula with the partials of the per-coordinate loop."""

    @settings(max_examples=60, deadline=None)
    @given(field_pairs())
    def test_matches_coordinate_formula(self, pair):
        a, b = pair
        expected = coordinate_formula(a, b)
        assert schouten(a, b) == expected
        if b is a and a.grade % 2 == 0:
            assert is_n_poisson(a) == expected.is_zero()


class TestBasics:
    def test_constant_fields_commute(self):
        chart = darboux_chart(1)
        assert schouten(coordinate_field(chart, "q1"), coordinate_field(chart, "p1")).is_zero()

    def test_lie_bracket_example(self):
        chart = darboux_chart(1)
        q1 = Polynomial.variable(chart, "q1")
        y = Multivector(chart, 1, {(1,): q1})  # q1 * e(p1)
        assert schouten(coordinate_field(chart, "q1"), y) == coordinate_field(chart, "p1")

    def test_standard_bivector_self_commutes(self):
        for n in (1, 2, 3):
            lam = poisson_bivector(standard_form(darboux_chart(n)))
            assert schouten(lam, lam).is_zero()

    def test_action_on_functions(self):
        rng = random.Random(21)
        for _ in range(10):
            x = rand_multivector(rng, C4, 1)
            f = rand_poly(rng, C4)
            expected = Polynomial.zero(C4)
            for (i,), c in x.terms.items():
                expected = expected + c * f.diff(i)
            assert schouten(x, Multivector.from_polynomial(f)) == Multivector.from_polynomial(expected)

    def test_matches_lie_bracket(self):
        rng = random.Random(22)
        for _ in range(10):
            x = rand_multivector(rng, C4, 1)
            y = rand_multivector(rng, C4, 1)
            assert schouten(x, y) == lie_oracle(x, y)

    def test_functions_bracket_to_zero(self):
        f = Multivector.from_polynomial(Polynomial.variable(C4, "x1"))
        assert schouten(f, f).is_zero()


class TestGradedLaws:
    def test_antisymmetry(self):
        rng = random.Random(23)
        for ga in (1, 2, 3):
            for gb in (1, 2, 3):
                a = rand_multivector(rng, C4, ga)
                b = rand_multivector(rng, C4, gb)
                sign = -1 if ((ga - 1) * (gb - 1)) % 2 else 1
                assert schouten(a, b) == schouten(b, a) * (-sign)

    def test_leibniz(self):
        rng = random.Random(24)
        for ga in (1, 2):
            for gb in (0, 1, 2):
                for gc in (1, 2):
                    a = rand_multivector(rng, C4, ga)
                    b = rand_multivector(rng, C4, gb)
                    c = rand_multivector(rng, C4, gc)
                    left = schouten(a, wedge(b, c))
                    sign = -1 if ((ga - 1) * gb) % 2 else 1
                    right = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * sign
                    assert left == right

    def test_graded_jacobi(self):
        rng = random.Random(25)
        for grades in ((1, 1, 2), (2, 2, 2)):
            for _ in range(6):
                a, b, c = (rand_multivector(rng, C4, g) for g in grades)
                da, db, dc = (g - 1 for g in grades)
                s1 = -1 if (da * dc) % 2 else 1
                s2 = -1 if (db * da) % 2 else 1
                s3 = -1 if (dc * db) % 2 else 1
                total = (
                    schouten(a, schouten(b, c)) * s1
                    + schouten(b, schouten(c, a)) * s2
                    + schouten(c, schouten(a, b)) * s3
                )
                assert total.is_zero()

    def test_compatible_wedge_products_commute(self):
        # two standard blocks on disjoint coordinate pairs stay compatible
        chart = darboux_chart(4)
        block1 = Multivector(chart, 2, {(4, 0): 1, (5, 1): 1})
        block2 = Multivector(chart, 2, {(6, 2): 1, (7, 3): 1})
        assert schouten(block1, block2).is_zero()
        assert schouten(wedge(block1, block2), wedge(block1, block1)).is_zero()


class TestPoissonChecks:
    def test_standard_is_poisson(self):
        assert is_poisson(poisson_bivector(standard_form(darboux_chart(2))))

    def test_divergence_decides(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        zero = Polynomial.zero(chart)
        cases = [
            ((qs[1], qs[2], qs[0]), True),
            ((qs[0] * qs[0], zero, zero), False),
            ((qs[0], zero, zero), False),
            (tuple(Polynomial.constant(chart, c) for c in (3, -1, 2)), True),
            ((qs[1] * qs[1], qs[2], qs[0] * qs[1]), True),
        ]
        for b, expected in cases:
            lam = poisson_bivector(magnetic_form(chart, *b))
            assert is_poisson(lam) is expected

    def test_wrong_grade_rejected(self):
        with pytest.raises(GradeMismatch):
            is_poisson(rand_multivector(random.Random(1), C4, 1))

    def test_even_grade_powers(self):
        sym_chart = darboux_chart(2)
        lam = poisson_bivector(standard_form(sym_chart))
        assert is_n_poisson(wedge(lam, lam))
        rng = random.Random(26)
        constant = Multivector(C4, 4, {(0, 1, 2, 3): Fraction(rng.randint(1, 5))})
        assert is_n_poisson(constant)

    def test_open_field_square_self_commutes_by_dimension(self):
        # [L^2, L^2] has grade 7 > 6, so it vanishes even when [L, L] != 0
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        zero = Polynomial.zero(chart)
        lam = poisson_bivector(magnetic_form(chart, qs[0], zero, zero))
        assert not is_poisson(lam)
        assert is_n_poisson(wedge(lam, lam))

    def test_odd_grade_rejected(self):
        with pytest.raises(GradeMismatch):
            is_n_poisson(rand_multivector(random.Random(2), C4, 3))

    @pytest.mark.parametrize("check", [is_poisson, is_n_poisson])
    def test_non_multivector_rejected(self, check):
        x1 = Polynomial.variable(C4, "x1")
        for value in (x1, Form(C4, 2, {(0, 1): x1})):
            with pytest.raises(KindMismatch, match="take a multivector"):
                check(value)


class TestVolumeCriteria:
    def test_standard_pair_passes(self):
        for n in (1, 2):
            chart = darboux_chart(n)
            omega = standard_form(chart)
            lam = poisson_bivector(omega)
            volume = form_power(omega, n)
            assert volume_poisson_criterion(lam, volume)

    def test_magnetic_cases(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        zero = Polynomial.zero(chart)
        volume = form_power(standard_form(chart), 3)
        good = poisson_bivector(magnetic_form(chart, qs[1], qs[2], qs[0]))
        bad = poisson_bivector(magnetic_form(chart, qs[0], zero, zero))
        assert volume_poisson_criterion(good, volume)
        assert not volume_poisson_criterion(bad, volume)

    def test_agrees_with_self_commutation(self):
        rng = random.Random(27)
        for _ in range(30):
            lam = rand_multivector(rng, C4, 2)
            assert volume_poisson_criterion(lam, VOL4) == is_poisson(lam)

    def test_bracket_contraction_identity(self):
        rng = random.Random(28)
        assert schouten_volume_identity_check(
            poisson_bivector(standard_form(darboux_chart(2))),
            poisson_bivector(standard_form(darboux_chart(2))),
            form_power(standard_form(darboux_chart(2)), 2),
        )
        constant1 = Multivector(C4, 2, {(0, 1): 2})
        constant2 = Multivector(C4, 2, {(2, 3): -1})
        assert schouten_volume_identity_check(constant1, constant2, VOL4)
        for _ in range(30):
            l1 = rand_multivector(rng, C4, 2)
            l2 = rand_multivector(rng, C4, 2)
            assert schouten_volume_identity_check(l1, l2, VOL4)


class TestJacobiPair:
    def test_zero_bivector(self):
        chart = Chart(("x", "y", "z"))
        assert jacobi_pair_check(Multivector.zero(chart, 2), coordinate_field(chart, "z"))

    def test_contact_example(self):
        chart = Chart(("x", "y", "z"))
        y = Polynomial.variable(chart, "y")
        # (e(x) + y e(z)) ^ e(y)
        lam = Multivector(chart, 2, {(0, 1): 1, (1, 2): -y})
        assert jacobi_pair_check(lam, coordinate_field(chart, "z"))
        assert not jacobi_pair_check(lam, -coordinate_field(chart, "z"))

    def test_unrelated_directions_fail(self):
        chart = Chart(("x", "y", "z"))
        lam = Multivector(chart, 2, {(0, 1): 1})
        assert not jacobi_pair_check(lam, coordinate_field(chart, "z"))
