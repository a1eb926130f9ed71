import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formcalc import (
    ArityMismatch,
    BracketDef,
    Chart,
    ChartMismatch,
    ConstraintSet,
    DegenerateStructure,
    Form,
    GradeMismatch,
    JacobiDef,
    KindMismatch,
    Multivector,
    Polynomial,
    RationalExpr,
    SymplecticData,
    bracket,
    contract,
    coordinate_field,
    coordinates,
    darboux_chart,
    derived_vf,
    differential,
    dirac_bracket_form,
    dirac_bracket_matrix,
    exact_divide,
    exterior_derivative,
    form_power,
    hamiltonian_vf,
    homogenization_check,
    jacobi_bracket,
    jacobiator,
    lie_derivative,
    magnetic_form,
    matrix_determinant,
    mv_from_form,
    nambu_top_bracket,
    omega_power_bracket,
    pair,
    parse_scenario_text,
    poisson_bivector,
    poisson_bracket,
    schouten,
    schouten_volume_identity_check,
    standard_form,
    volume_poisson_criterion,
    wedge,
    wedge_all,
)
from formcalc import brackets, cli, exterior, manifest
from formcalc.cli import run_scenario

from tests.helpers import (
    bivector_loop_hamiltonian_vf,
    exp_poly_homogenization,
    full_wedge_bracket,
    full_wedge_derived_vf,
    full_wedge_jacobi_bracket,
    laplace_determinant,
    qp,
    rand_form,
    rand_multivector,
    rand_poly,
    volume_route_binary,
    volume_route_def,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def permutation_parity(sigma) -> int:
    parity = 1
    items = list(sigma)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                parity = -parity
    return parity


class TestBracketDef:
    def test_minimal_binary(self):
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        omega = standard_form(chart)
        bdef = BracketDef(omega, Form.from_polynomial(Polynomial.constant(chart, 1)))
        assert bracket(bdef, p1, q1) == Polynomial.constant(chart, 1)

    def test_repeated_argument_vanishes(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(30)
        f = rand_poly(rng, chart)
        g = rand_poly(rng, chart)
        assert omega_power_bracket(sym, 2, f, f, g, g + 1).is_zero()

    def test_constant_argument_vanishes(self):
        chart = darboux_chart(1)
        q1, _ = coordinates(chart)
        sym = SymplecticData(standard_form(chart))
        one = Polynomial.constant(chart, 1)
        assert omega_power_bracket(sym, 1, one, q1).is_zero()

    def test_arity_guard(self):
        chart = darboux_chart(1)
        sym = SymplecticData(standard_form(chart))
        with pytest.raises(ArityMismatch):
            omega_power_bracket(sym, 1, Polynomial.constant(chart, 1))

    def test_power_index_out_of_range(self):
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        sym = SymplecticData(standard_form(chart))
        with pytest.raises(ArityMismatch):
            omega_power_bracket(sym, 2, q1, p1, q1, p1)
        with pytest.raises(ArityMismatch):
            derived_vf(sym, 0)

    def test_arity_messages(self):
        # one count check and one power-index check, whose messages the scenario parser shares
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        sym = SymplecticData(standard_form(chart))
        volume = standard_form(chart)
        c4 = darboux_chart(2)
        quaternary = BracketDef(form_power(standard_form(c4), 2), Form.from_polynomial(Polynomial.constant(c4, 1)))
        calls = [
            (lambda: bracket(BracketDef(volume, Form.from_polynomial(q1)), q1), "bracket takes 2 functions, got 1"),
            (lambda: omega_power_bracket(sym, 1, q1), "power bracket with k=1 takes 2 functions, got 1"),
            (lambda: derived_vf(sym, 1), "derived field with k=1 takes 1 functions, got 0"),
            (lambda: nambu_top_bracket(volume, q1, p1), "top bracket takes 2 functions, got 1"),
            (lambda: omega_power_bracket(sym, 2, q1, p1, q1, p1), "k must lie in 1..1"),
            (lambda: derived_vf(sym, 0), "k must lie in 1..1"),
            (lambda: jacobiator(quaternary, *coordinates(c4)[:3]), "jacobiator needs a binary bracket definition"),
        ]
        for call, message in calls:
            with pytest.raises(ArityMismatch) as err:
                call()
            assert str(err.value) == message

    def test_alpha_must_leave_an_argument_slot(self):
        volume = standard_form(darboux_chart(1))
        with pytest.raises(GradeMismatch) as err:
            BracketDef(volume, volume)
        assert str(err.value) == "alpha leaves no argument slots"

    def test_argument_from_another_chart(self):
        chart = darboux_chart(1)
        q1, _ = coordinates(chart)
        bdef = BracketDef(standard_form(chart), Form.from_polynomial(Polynomial.constant(chart, 1)))
        foreign = coordinates(darboux_chart(2))[2]
        with pytest.raises(ChartMismatch, match="bracket argument"):
            bracket(bdef, q1, foreign)
        with pytest.raises(ChartMismatch, match="bracket argument"):
            nambu_top_bracket(standard_form(chart), q1, q1, foreign)

    def test_quotient_argument_is_a_kind_error(self):
        # with a non-constant volume brackets are quotients, which the
        # jacobiator cannot feed back into the bracket
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        bdef = BracketDef(Form(chart, 2, {(0, 1): q1 * q1 + 1}),
                          Form.from_polynomial(Polynomial.constant(chart, 1)))
        with pytest.raises(KindMismatch):
            jacobiator(bdef, q1, p1, q1 * p1)

    def test_nonconstant_volume_falls_back_to_quotient(self):
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        volume = Form(chart, 2, {(0, 1): q1 * q1 + 1})
        bdef = BracketDef(volume, Form.from_polynomial(Polynomial.constant(chart, 1)))
        value = bracket(bdef, p1, q1)
        assert isinstance(value, RationalExpr)
        assert value == RationalExpr(Polynomial.constant(chart, -1), q1 * q1 + 1)

    @pytest.mark.parametrize("kind", ["quotient", "number", "float"])
    @pytest.mark.parametrize("entry", [
        "Form", "Multivector", "differential", "omega_power_bracket", "derived_vf",
        "hamiltonian_vf", "jacobi_bracket", "homogenization_check", "ConstraintSet",
        "nambu_top_bracket", "Polynomial", "RationalExpr", "exact_divide", "matrix_determinant",
        "magnetic_form", "bracket", "poisson_bracket", "jacobiator", "dirac_bracket_matrix",
        "dirac_bracket_form",
    ])
    def test_non_polynomial_argument_is_a_kind_error(self, entry, kind):
        chart = darboux_chart(2)
        q1, q2, p1, p2 = coordinates(chart)
        bad = {"quotient": RationalExpr(q1, p1), "number": 3, "float": 1.5}[kind]
        sym = SymplecticData(standard_form(chart))
        jdef = JacobiDef(Multivector(chart, 2, {(0, 1): 1}), Multivector.zero(chart, 1))
        cs = ConstraintSet(sym, [q2, p2])
        zero = Polynomial.zero(chart)
        c3 = darboux_chart(3)
        # entry -> (index or exponent tuple, value) of a number taken as a constant coefficient
        numbers = {"Form": ((0,), 3), "Multivector": ((0,), 3), "Polynomial": ((1, 0, 0, 0), 3),
                   "magnetic_form": ((1, 2), -3)}
        calls = {
            "Form": lambda: Form(chart, 1, {(0,): bad}),
            "Multivector": lambda: Multivector(chart, 1, {(0,): bad}),
            "differential": lambda: differential(bad),
            "omega_power_bracket": lambda: omega_power_bracket(sym, 1, bad, q1),
            "derived_vf": lambda: derived_vf(sym, 1, bad),
            "hamiltonian_vf": lambda: hamiltonian_vf(sym, bad),
            "jacobi_bracket": lambda: jacobi_bracket(jdef, q1, bad),
            "homogenization_check": lambda: homogenization_check(jdef, bad, q1),
            "ConstraintSet": lambda: ConstraintSet(sym, [bad, q1]),
            "nambu_top_bracket": lambda: nambu_top_bracket(sym.volume(), bad, q1, p1, q2, p2),
            "Polynomial": lambda: Polynomial(chart, {(1, 0, 0, 0): bad}),
            "RationalExpr": lambda: RationalExpr(q1, bad),
            "exact_divide": lambda: exact_divide(q1, bad),
            "matrix_determinant": lambda: matrix_determinant([[zero, bad], [-q1, zero]], chart),
            "magnetic_form": lambda: magnetic_form(c3, bad, Polynomial.zero(c3), Polynomial.zero(c3)),
            "bracket": lambda: bracket(BracketDef(sym.volume(), sym.omega), q1, bad),
            "poisson_bracket": lambda: poisson_bracket(sym, bad, q1),
            "jacobiator": lambda: jacobiator(sym, q1, p1, bad),
            "dirac_bracket_matrix": lambda: dirac_bracket_matrix(cs, bad, q1),
            "dirac_bracket_form": lambda: dirac_bracket_form(cs, q1, bad),
        }
        if kind == "number" and entry in numbers:
            key, value = numbers[entry]
            assert calls[entry]().coefficient(key) == value
        else:
            with pytest.raises(KindMismatch):
                calls[entry]()

    def test_zero_quotient_is_the_zero_function(self):
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        zero = RationalExpr(Polynomial.zero(chart), p1)
        sym = SymplecticData(standard_form(chart))
        assert omega_power_bracket(sym, 1, zero, q1).is_zero()
        assert hamiltonian_vf(sym, zero).is_zero()


class TestPowerBracket:
    def test_full_arity_value(self):
        # direct expansion oracle: { q1, p1, q2, p2 } with k = n = 2
        chart = darboux_chart(2)
        q1, q2, p1, p2 = coordinates(chart)
        sym = SymplecticData(standard_form(chart))
        top = tuple(range(4))
        dfw = wedge_all([differential(f) for f in (q1, p1, q2, p2)])
        volume = sym.volume()
        oracle = dfw.terms[top] * 2 / volume.terms[top].constant_value()
        assert oracle == Polynomial.constant(chart, 2)
        assert omega_power_bracket(sym, 2, q1, p1, q2, p2) == oracle

    def test_mixed_pairs_are_kronecker(self):
        for n in (1, 2, 3):
            chart = darboux_chart(n)
            qs, ps = qp(chart)
            sym = SymplecticData(standard_form(chart))
            for i in range(n):
                for j in range(n):
                    value = omega_power_bracket(sym, 1, ps[i], qs[j])
                    assert value == Polynomial.constant(chart, 1 if i == j else 0)
                    assert omega_power_bracket(sym, 1, qs[i], qs[j]).is_zero()
                    assert omega_power_bracket(sym, 1, ps[i], ps[j]).is_zero()

    def test_magnetic_momentum_brackets(self):
        chart = darboux_chart(3)
        qs, ps = qp(chart)
        sym = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
        assert omega_power_bracket(sym, 1, ps[0], ps[1]) == qs[0]
        assert omega_power_bracket(sym, 1, ps[1], ps[2]) == qs[1]
        assert omega_power_bracket(sym, 1, ps[2], ps[0]) == qs[2]

    def test_generator_is_wedge_power(self):
        specs = [(n, "standard") for n in (1, 2, 3)] + list(CLOSED_SPECS)
        for spec in specs:
            sym = _structure(spec)
            n = sym.n
            for k in range(1, n + 1):
                alpha = sym.power(n - k) * Fraction(factorial(k), factorial(n - k))
                bdef = BracketDef(sym.volume(), alpha)
                assert bdef.generator == sym.bivector_power(k)
                assert contract(sym.bivector_power(k), sym.volume()) == alpha

    def test_total_antisymmetry(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(31)
        fs = [rand_poly(rng, chart, degree=1) for _ in range(4)]
        base = omega_power_bracket(sym, 2, *fs)
        for sigma in permutations(range(4)):
            shuffled = omega_power_bracket(sym, 2, *(fs[i] for i in sigma))
            assert shuffled == base * permutation_parity(sigma)

    def test_leibniz_in_a_slot(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(32)
        for _ in range(10):
            f, f2, g, h, w = (rand_poly(rng, chart, degree=1) for _ in range(5))
            left = omega_power_bracket(sym, 2, f * f2, g, h, w)
            right = f * omega_power_bracket(sym, 2, f2, g, h, w) + f2 * omega_power_bracket(
                sym, 2, f, g, h, w
            )
            assert left == right

    def test_jacobi_identity_binary(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(33)
        for _ in range(10):
            f, g, h = (rand_poly(rng, chart) for _ in range(3))
            assert jacobiator(sym, f, g, h).is_zero()

    def test_generator_self_commutes(self):
        for n in (2, 3):
            chart = darboux_chart(n)
            sym = SymplecticData(standard_form(chart))
            for k in range(1, n + 1):
                power = sym.bivector_power(k)
                assert schouten(power, power).is_zero()


class TestNambu:
    def test_identity_jacobian(self):
        chart = Chart(("x", "y"))
        x, y = coordinates(chart)
        volume = Form(chart, 2, {(0, 1): 1})
        one = Polynomial.constant(chart, 1)
        assert nambu_top_bracket(volume, one, x, y) == one

    def test_function_weight(self):
        chart = Chart(("x", "y"))
        x, y = coordinates(chart)
        volume = Form(chart, 2, {(0, 1): 1})
        assert nambu_top_bracket(volume, x, x, y) == x

    def test_odd_permutation_flips_sign(self):
        chart = Chart(("x", "y", "z"))
        x, y, z = coordinates(chart)
        volume = Form(chart, 3, {(0, 1, 2): 1})
        gamma = x * y + 2
        assert nambu_top_bracket(volume, gamma, y, x, z) == -gamma

    def test_arity_guard(self):
        chart = Chart(("x", "y"))
        x, _ = coordinates(chart)
        volume = Form(chart, 2, {(0, 1): 1})
        with pytest.raises(ArityMismatch):
            nambu_top_bracket(volume, x, x)

    @staticmethod
    def volume_consumers(chart):
        """Each construction that takes a volume, as a call on the volume alone."""
        x, y = coordinates(chart)
        one = Form.from_polynomial(Polynomial.constant(chart, 1))
        bivector = Multivector(chart, 2, {(0, 1): x})
        return [
            lambda volume: BracketDef(volume, one),
            lambda volume: nambu_top_bracket(volume, x, x, y),
            lambda volume: mv_from_form(volume, one),
            lambda volume: volume_poisson_criterion(bivector, volume),
            lambda volume: schouten_volume_identity_check(bivector, bivector, volume),
        ]

    @pytest.mark.parametrize("grade, terms", [(2, {}), (1, {(0,): 1}), (1, {})])
    def test_volume_must_be_a_nonzero_top_form(self, grade, terms):
        chart = Chart(("x", "y"))
        for consume in self.volume_consumers(chart):
            with pytest.raises(DegenerateStructure, match="nonzero top form"):
                consume(Form(chart, grade, terms))

    def test_volume_must_be_a_form(self):
        chart = Chart(("x", "y"))
        x, _ = coordinates(chart)
        for volume in (x, Multivector(chart, 2, {(0, 1): 1})):
            for consume in self.volume_consumers(chart):
                with pytest.raises(KindMismatch):
                    consume(volume)

    def test_volume_coefficient_must_be_constant(self):
        chart = Chart(("x", "y"))
        x, y = coordinates(chart)
        with pytest.raises(DegenerateStructure, match="rational constant"):
            nambu_top_bracket(Form(chart, 2, {(0, 1): x + 1}), x, x, y)


class TestHamiltonianField:
    def test_momentum_generates_translation(self):
        chart = darboux_chart(1)
        q1, p1 = coordinates(chart)
        sym = SymplecticData(standard_form(chart))
        x = hamiltonian_vf(sym, p1)
        assert x == coordinate_field(chart, "q1")
        assert pair(differential(q1), x) == omega_power_bracket(sym, 1, p1, q1)

    def test_constant_gives_zero(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        assert hamiltonian_vf(sym, Polynomial.constant(chart, 7)).is_zero()

    def test_contraction_convention(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(34)
        for _ in range(10):
            f = rand_poly(rng, chart)
            x = hamiltonian_vf(sym, f)
            assert contract(x, sym.omega) == -differential(f)

    def test_preserves_the_form(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(35)
        for _ in range(10):
            x = hamiltonian_vf(sym, rand_poly(rng, chart))
            assert lie_derivative(x, sym.omega).is_zero()

    def test_action_is_the_bracket(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(36)
        for _ in range(10):
            f = rand_poly(rng, chart)
            g = rand_poly(rng, chart)
            assert pair(differential(g), hamiltonian_vf(sym, f)) == omega_power_bracket(
                sym, 1, f, g
            )


class TestDerivedField:
    def test_magnetic_drift(self):
        chart = darboux_chart(3)
        qs, ps = qp(chart)
        sym = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
        x = derived_vf(sym, 2, ps[0], ps[1], ps[2])
        expected = Multivector(chart, 1, {(0,): qs[1], (1,): qs[2], (2,): qs[0]})
        assert x == expected

    def test_standard_form_gives_zero(self):
        chart = darboux_chart(3)
        _, ps = qp(chart)
        sym = SymplecticData(standard_form(chart))
        assert derived_vf(sym, 2, ps[0], ps[1], ps[2]).is_zero()

    def test_reduces_to_hamiltonian_field(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        rng = random.Random(37)
        for _ in range(6):
            f = rand_poly(rng, chart)
            assert derived_vf(sym, 1, f) == bivector_loop_hamiltonian_vf(sym, f)

    def test_three_function_expansion(self):
        rng = random.Random(38)
        for n in (2, 3):
            chart = darboux_chart(n)
            sym = SymplecticData(standard_form(chart))
            for _ in range(8):
                f1, f2, f3 = (rand_poly(rng, chart) for _ in range(3))
                left = derived_vf(sym, 2, f1, f2, f3)
                pb = lambda a, b: omega_power_bracket(sym, 1, a, b)
                right = (
                    hamiltonian_vf(sym, f3) * pb(f1, f2)
                    + hamiltonian_vf(sym, f1) * pb(f2, f3)
                    + hamiltonian_vf(sym, f2) * pb(f3, f1)
                )
                assert left == right

    def test_not_a_derivation_witness(self):
        # on the linear-field chart the drift field fails the Leibniz rule
        chart = darboux_chart(3)
        qs, ps = qp(chart)
        sym = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
        x = derived_vf(sym, 2, ps[0], ps[1], ps[2])
        f, g = ps[1], ps[2]
        pb = lambda a, b: omega_power_bracket(sym, 1, a, b)
        act = lambda h: pair(differential(h), x)
        left = act(pb(f, g))
        right = pb(act(f), g) + pb(f, act(g))
        assert left != right


class TestJacobiBracket:
    CONTACT = Chart(("x", "y", "z"))

    def contact_pair(self):
        y = Polynomial.variable(self.CONTACT, "y")
        lam = Multivector(self.CONTACT, 2, {(0, 1): 1, (1, 2): -y})
        return JacobiDef(lam, coordinate_field(self.CONTACT, "z"))

    def test_flag_recomputed(self):
        jdef = self.contact_pair()
        assert jdef.is_jacobi
        bad = JacobiDef(
            Multivector(self.CONTACT, 2, {(0, 1): 1}),
            coordinate_field(self.CONTACT, "z"),
        )
        assert not bad.is_jacobi

    def test_reduces_to_poisson_bracket(self):
        chart = darboux_chart(2)
        sym = SymplecticData(standard_form(chart))
        jdef = JacobiDef(sym.bivector, Multivector.zero(chart, 1))
        rng = random.Random(39)
        for _ in range(6):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            assert jacobi_bracket(jdef, f, g) == omega_power_bracket(sym, 1, f, g)

    def test_antisymmetry(self):
        jdef = self.contact_pair()
        rng = random.Random(40)
        f = rand_poly(rng, self.CONTACT)
        assert jacobi_bracket(jdef, f, f).is_zero()

    def test_contact_value(self):
        # hand expansion: L(x, y) = 1 and the field terms vanish
        jdef = self.contact_pair()
        x, y, _ = coordinates(self.CONTACT)
        assert jacobi_bracket(jdef, x, y) == Polynomial.constant(self.CONTACT, 1)

    def test_jacobi_identity_when_flag_holds(self):
        jdef = self.contact_pair()
        rng = random.Random(41)
        for _ in range(20):
            f, g, h = (rand_poly(rng, self.CONTACT) for _ in range(3))
            assert jacobiator(jdef, f, g, h).is_zero()


class TestHomogenization:
    CONTACT = Chart(("x", "y", "z"))

    def contact_pair(self):
        y = Polynomial.variable(self.CONTACT, "y")
        lam = Multivector(self.CONTACT, 2, {(0, 1): 1, (1, 2): -y})
        return JacobiDef(lam, coordinate_field(self.CONTACT, "z"))

    def test_trivial_pair(self):
        jdef = JacobiDef(Multivector.zero(self.CONTACT, 2), Multivector.zero(self.CONTACT, 1))
        one = Polynomial.constant(self.CONTACT, 1)
        assert homogenization_check(jdef, one, one)

    def test_constants(self):
        jdef = self.contact_pair()
        one = Polynomial.constant(self.CONTACT, 1)
        assert homogenization_check(jdef, one, one)

    def test_random_pairs(self):
        jdef = self.contact_pair()
        rng = random.Random(42)
        for _ in range(20):
            f, g = rand_poly(rng, self.CONTACT), rand_poly(rng, self.CONTACT)
            assert homogenization_check(jdef, f, g)

    def test_pairs_through_generator(self, monkeypatch):
        """The left side is one ``_Generator`` pairing of the lifted
        arguments, with no wedge of them built."""
        calls = Counter()
        wedge, generator_pair = exterior.wedge, exterior._Generator.pair

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(exterior, "wedge", counted("wedge", wedge))
        monkeypatch.setattr(brackets, "wedge", counted("wedge", wedge), raising=False)
        monkeypatch.setattr(exterior._Generator, "pair", counted("pairing", generator_pair))
        jdef = self.contact_pair()
        rng = random.Random(43)
        f, g = rand_poly(rng, self.CONTACT), rand_poly(rng, self.CONTACT)
        assert homogenization_check(jdef, f, g)
        # the left side; jacobi_bracket on the right sums the generator's products
        assert calls == {"pairing": 1}

    def test_chart_holding_s_and_ss(self):
        """The fresh coordinate is a name the chart does not hold; the check
        agrees with the ``exp(w*s)`` oracle run on a free name."""
        chart = Chart(("x", "s", "ss"))
        x, s, ss = coordinates(chart)
        lam = Multivector(chart, 2, {(0, 1): 1, (1, 2): -ss, (0, 2): x * s})
        jdef = JacobiDef(lam, Multivector(chart, 1, {(2,): 1, (0,): s}))
        rng = random.Random(44)
        for _ in range(10):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            oracle = exp_poly_homogenization(jdef, f, g, "t")
            right = jacobi_bracket(jdef, f, g).extended_to(oracle.chart)
            expected = set(oracle.terms) <= {0} and oracle.terms.get(0, Polynomial.zero(oracle.chart)) == right
            assert expected
            assert homogenization_check(jdef, f, g) == expected


@st.composite
def jacobi_cases(draw):
    """A random pair ``(L, X)`` on a 2-4-dim chart, zero and non-Jacobi
    pairs included, with two random functions."""
    dim = draw(st.integers(2, 4))
    chart = Chart(("x1", "x2", "x3", "x4")[:dim])
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), st.integers(-3, 3), max_size=3).map(
        lambda terms: Polynomial(chart, {e: Fraction(c) for e, c in terms.items() if c}))
    nonzero = polys.filter(lambda p: not p.is_zero())

    def terms(keys):
        # zero in one draw of four; hypothesis's simplest draw is the nonzero case
        if draw(st.integers(0, 3)) == 3:
            return {}
        return draw(st.dictionaries(st.sampled_from(keys), nonzero, min_size=1, max_size=4))

    bivector = Multivector(chart, 2, terms(list(combinations(range(dim), 2))))
    field = Multivector(chart, 1, terms([(i,) for i in range(dim)]))
    return JacobiDef(bivector, field), draw(polys), draw(polys)


class TestHomogenizationOracle:
    """``homogenization_check`` on the tensor layer against the ``exp(w*s)``
    algebra it ran on before: the oracle's left side keeps only weight 0,
    and both left sides equal the Jacobi bracket on the extended chart."""

    @settings(max_examples=80, deadline=None)
    @given(jacobi_cases())
    def test_matches_exp_poly_oracle(self, case):
        jdef, f, g = case
        oracle = exp_poly_homogenization(jdef, f, g)
        right = jacobi_bracket(jdef, f, g).extended_to(oracle.chart)
        assert set(oracle.terms) <= {0}
        assert oracle.terms.get(0, Polynomial.zero(oracle.chart)) == right
        assert homogenization_check(jdef, f, g)


class TestJacobiator:
    def test_magnetic_cases(self):
        chart = darboux_chart(3)
        qs, ps = qp(chart)
        zero = Polynomial.zero(chart)
        closed = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
        assert jacobiator(closed, ps[0], ps[1], ps[2]).is_zero()
        # open case: go through a bracket definition, no closedness needed
        omega_open = magnetic_form(chart, qs[0], zero, zero)
        volume = form_power(omega_open, 3) * Fraction(1, 6)
        alpha = form_power(omega_open, 2) * Fraction(1, 2)
        bdef = BracketDef(volume, alpha)
        value = jacobiator(bdef, ps[0], ps[1], ps[2])
        assert value == Polynomial.constant(chart, 1)  # equals div B


CHART4 = Chart(("x1", "x2", "x3", "x4"))
TOP4 = (0, 1, 2, 3)

small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3), max_size=3
).map(lambda terms: Polynomial(CHART4, {e: Fraction(c) for e, c in terms.items() if c}))
nonzero_constants = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


class TestRouteAgreement:
    """The evaluation routes the library does not take, as oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), nonzero_constants)
    def test_bracket_routes(self, data, k, c):
        volume = Form(CHART4, 4, {TOP4: c})
        keys = list(combinations(range(4), 4 - k))
        alpha = Form(CHART4, 4 - k, {key: data.draw(small_polys) for key in keys})
        fs = [data.draw(small_polys) for _ in range(k)]
        bdef = BracketDef(volume, alpha)
        dfw = wedge_all([differential(f) for f in fs])
        assert bracket(bdef, *fs) * c == wedge(dfw, alpha).coefficient(TOP4)
        assert contract(bdef.generator, volume) == alpha

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), small_polys.filter(lambda p: not p.is_constant()))
    def test_nonconstant_volume_routes(self, data, k, c):
        # the pairing with *alpha over c, against the top coefficient of the wedge over c
        volume = Form(CHART4, 4, {TOP4: c})
        keys = list(combinations(range(4), 4 - k))
        alpha = Form(CHART4, 4 - k, {key: data.draw(small_polys) for key in keys})
        fs = [data.draw(small_polys) for _ in range(k)]
        bdef = BracketDef(volume, alpha)
        value = bracket(bdef, *fs)
        dfw = wedge_all([differential(f) for f in fs])
        assert bdef.generator is None
        assert (value.numerator, value.denominator) == (wedge(dfw, alpha).coefficient(TOP4), c)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_polys, min_size=5, max_size=5), nonzero_constants)
    def test_nambu_routes(self, polys, c):
        gamma, fs = polys[0], polys[1:]
        volume = Form(CHART4, 4, {TOP4: c})
        jacobian = [[f.diff(j) for j in range(4)] for f in fs]
        expected = gamma * laplace_determinant(jacobian, CHART4) * (Fraction(1) / c)
        assert nambu_top_bracket(volume, gamma, *fs) == expected



def _closed_form(chart: Chart, seed: int) -> Form:
    """The standard form plus ``d`` of a seeded 1-form ``sum_i c_i(q) dq_i``:
    closed, and with the standard form's constant determinant."""
    rng = random.Random(seed)
    n = chart.dim // 2
    qs = coordinates(chart)[:n]
    alpha = {}
    for i in range(n):
        c = Polynomial.zero(chart)
        for _ in range(3):
            term = Polynomial.constant(chart, rng.randint(-2, 2))
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(qs)
            c = c + term
        alpha[(i,)] = c
    return standard_form(chart) + exterior_derivative(Form(chart, 1, alpha))


def _field_form(chart: Chart) -> Form:
    """The magnetic form of a polynomial divergence-free field on a
    6-dimensional chart."""
    q1, q2, q3 = coordinates(chart)[:3]
    return magnetic_form(chart, q2 * q3 + q2 * q2, q1 * q3 - q2, q3 + q1 * q2)


def _dense_form(chart: Chart, seed: int) -> Form:
    """A nondegenerate 2-form with a seeded constant in -2..2 on every index
    pair; constant, so closed."""
    rng = random.Random(seed)
    while True:
        omega = Form(chart, 2, {key: rng.randint(-2, 2) for key in combinations(range(chart.dim), 2)})
        try:
            poisson_bivector(omega)
        except DegenerateStructure:
            continue
        return omega


def _magnetic(chart: Chart) -> Form:
    """A closed magnetic-type form: the standard form plus field-strength
    terms on ``q1, q2, q3``."""
    q1, q2, q3 = coordinates(chart)[:3]
    if chart.dim == 6:
        return magnetic_form(chart, q2, q3, q1)
    return standard_form(chart) + Form(chart, 2, {(0, 1): -q1, (0, 2): q3, (1, 2): -q2})


_STRUCTURES = {}


_FORMS = {"standard": standard_form, "magnetic": _magnetic, "field": _field_form,
          "closed": _closed_form, "dense": _dense_form}


def _structure(spec) -> SymplecticData:
    """One memoized ``SymplecticData`` per ``(n, kind)``, so the draws share
    their power forms and bracket definitions.  A kind is a key of
    ``_FORMS``, with a seed appended for the seeded ones (``"dense1"``)."""
    if spec not in _STRUCTURES:
        n, kind = spec
        name = kind.rstrip("0123456789")
        seeds = [int(kind[len(name):])] if name != kind else []
        _STRUCTURES[spec] = SymplecticData(_FORMS[name](darboux_chart(n), *seeds))
    return _STRUCTURES[spec]


structure_specs = st.tuples(
    st.sampled_from((3, 4)),
    st.sampled_from(("standard", "magnetic", "closed0", "closed1")),
)

# closed forms with non-trivial wedge powers: the polynomial magnetic form on
# 6 dimensions, the magnetic-type form of the power-brackets benchmark on 8,
# and dense constant forms on 4, 6 and 8
CLOSED_SPECS = ((3, "field"), (4, "magnetic"), (2, "dense0"), (2, "dense1"), (3, "dense0"),
                (3, "dense1"), (4, "dense0"), (4, "dense1"))


def chart_polys(chart: Chart):
    """Polynomials of degree at most 2 on ``chart``: a linear part in which
    most coordinates appear, so the differentials have most components, and
    up to 3 monomials of degree 2."""
    dim = chart.dim
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    linear = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(
        lambda cs: dict(zip(units, cs)))
    quadratic = st.dictionaries(
        st.lists(st.integers(0, dim - 1), min_size=2, max_size=2).map(
            lambda picks: tuple(picks.count(i) for i in range(dim))),
        st.integers(-3, 3), max_size=3)
    return st.builds(lambda a, b: Polynomial(chart, {e: Fraction(c) for e, c in {**a, **b}.items()}),
                     linear, quadratic)


@st.composite
def constant_determinant_forms(draw):
    """The standard form on a 4-8-dim chart plus polynomial ``d(q_i)^d(q_j)``
    terms, which leave the determinant 1: either ``d`` of a seeded 1-form in
    the ``q``, so closed, or random terms that leave it not closed."""
    chart = darboux_chart(draw(st.integers(2, 4)))
    n = chart.dim // 2
    if draw(st.booleans()):
        return _closed_form(chart, draw(st.integers(0, 10**6)))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * chart.dim), st.integers(-2, 2), max_size=2).map(
        lambda terms: Polynomial(chart, {e: Fraction(c) for e, c in terms.items() if c}))
    pairs = draw(st.dictionaries(st.sampled_from(list(combinations(range(n), 2))), polys, min_size=1, max_size=3))
    omega = standard_form(chart) + Form(chart, 2, pairs)
    assume(not exterior_derivative(omega).is_zero())
    return omega


class TestCheckJacobiOracle:
    """``check-jacobi``, which pairs with the inverse bivector, against the
    volume route it took before, on closed forms and forms that are not."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), constant_determinant_forms())
    def test_matches_volume_route(self, data, omega):
        f, g, h = (data.draw(chart_polys(omega.chart)) for _ in range(3))
        text = "\n".join(["[chart]", " ".join(omega.chart.names), "[define]", f"omega = {omega}",
                          f"f = {f}", f"g = {g}", f"h = {h}", "[tasks]", "jac = check-jacobi omega f g h"])
        outcome, = run_scenario(parse_scenario_text(text)).outcomes
        expected = jacobiator(volume_route_binary(omega), f, g, h)
        assert (outcome.status, outcome.result_text) == ("done", str(expected))


def _open_form(chart: Chart) -> Form:
    """The standard form plus polynomial ``d(q_i)^d(q_j)`` terms whose
    ``d`` does not vanish: determinant 1, not closed."""
    q1, q2, q3 = coordinates(chart)[:3]
    return standard_form(chart) + Form(chart, 2, {(0, 1): q3 * q1 + 2, (1, 2): q1 * q1 - q3})


class TestBinaryStructure:
    """The bivector ``check-jacobi`` pairs with, ``Structures.bivector``, as
    a jacobiator source: the volume route's bracket itself, not only its
    jacobiator, so an argument swap shows; and one inversion per
    nondegenerate form, whether its structure builds or fails."""

    FORMS = {"standard": lambda: standard_form(darboux_chart(2)),
             "field": lambda: _field_form(darboux_chart(3)),
             "not closed": lambda: _open_form(darboux_chart(3))}

    @pytest.mark.parametrize("name", FORMS)
    def test_is_the_volume_route_bracket(self, name):
        omega = self.FORMS[name]()
        binary = brackets._binary_bracket(manifest.Structures().bivector(omega))
        oracle = volume_route_binary(omega)
        closed = exterior_derivative(omega).is_zero()
        assert closed == (name != "not closed")
        rng = random.Random(61)
        for _ in range(8):
            f, g = rand_poly(rng, omega.chart), rand_poly(rng, omega.chart)
            value = binary(f, g)
            assert value == bracket(oracle, f, g)
            if closed:
                assert value == poisson_bracket(SymplecticData(omega), f, g)

    @staticmethod
    def count_inversions(monkeypatch) -> Counter:
        """Calls of ``poisson_bivector`` by the ``id`` of the form, through
        its home module (so inside ``SymplecticData``) and ``manifest``."""
        calls = Counter()

        def counted(omega):
            calls[id(omega)] += 1
            return poisson_bivector(omega)

        monkeypatch.setattr(exterior, "poisson_bivector", counted)
        monkeypatch.setattr(manifest, "poisson_bivector", counted)
        return calls

    @staticmethod
    def count_closedness_tests(monkeypatch) -> Counter:
        """Calls of ``exterior_derivative`` by the ``id`` of the form through
        its home module, where ``SymplecticData`` tests closedness, the only
        place that does: ``manifest`` does not import it."""
        assert not hasattr(manifest, "exterior_derivative")
        calls = Counter()

        def counted(form):
            calls[id(form)] += 1
            return exterior_derivative(form)

        monkeypatch.setattr(exterior, "exterior_derivative", counted)
        return calls

    @pytest.mark.parametrize("name", FORMS)
    def test_one_inversion_per_form_in_any_order(self, monkeypatch, name):
        omega = self.FORMS[name]()
        closed = name != "not closed"
        f, g, h = coordinates(omega.chart)[-3:]
        uses = {
            "bivector": lambda s: s.bivector(omega),
            "check-poisson": lambda s: manifest.COMMANDS["check-poisson"].run(s, omega),
            "check-jacobi": lambda s: manifest.COMMANDS["check-jacobi"].run(s, omega, f, g, h),
        }
        if closed:
            uses["sym"] = lambda s: s.sym(omega)
        calls = self.count_inversions(monkeypatch)
        tests = self.count_closedness_tests(monkeypatch)
        for order in permutations(uses):
            calls.clear()
            tests.clear()
            structures = manifest.Structures()
            for use in order:
                uses[use](structures)
            assert calls == {id(omega): 1}, order
            assert tests == {id(omega): 1}, order
            if closed:
                assert structures.bivector(omega) is structures.sym(omega).bivector
            else:
                # a failed structure is built again, which tests closedness
                # again but never inverts
                for _ in range(2):
                    with pytest.raises(DegenerateStructure, match="symplectic form must be closed"):
                        structures.sym(omega)
                assert (calls, tests) == ({id(omega): 1}, {id(omega): 3}), order
        assert manifest.Structures().bivector(omega) == poisson_bivector(omega)

    @pytest.mark.parametrize("name", ["magnetic", "divergence"])
    def test_each_scenario_form_is_inverted_once(self, monkeypatch, name):
        scenario = manifest.parse_scenario(SCENARIOS / f"{name}.scn")
        calls = self.count_inversions(monkeypatch)
        tests = self.count_closedness_tests(monkeypatch)
        run_scenario(scenario)
        forms = {id(value) for value in scenario.definitions.values() if isinstance(value, Form)}
        assert forms and {key: calls[key] for key in forms} == dict.fromkeys(forms, 1)
        assert {key: tests[key] for key in forms} == dict.fromkeys(forms, 1)

    OPEN_FORM_TASKS = """
[chart]
q1 q2 q3 p1 p2 p3
[define]
omegaB = d(p1)^d(q1) + d(p2)^d(q2) + d(p3)^d(q3) - q1 * d(q2)^d(q3)
th = constraints(q3, p3)
[tasks]
poisson = check-poisson omegaB
jac = check-jacobi omegaB p1 p2 p3
vf1 = derived-vf omegaB k=1 p1
vf2 = derived-vf omegaB k=1 p2
pb = power-bracket omegaB k=1 p1 q1
dm = dirac-matrix omegaB th p1 q1
"""

    def test_open_form_is_inverted_once(self, monkeypatch):
        # the divergence form is nondegenerate but not closed: each task that
        # needs its structure fails on the closedness test, before any
        # inversion, and the jacobiator's fallback bivector is the one inversion
        scenario = parse_scenario_text(self.OPEN_FORM_TASKS)
        calls = self.count_inversions(monkeypatch)
        tests = self.count_closedness_tests(monkeypatch)
        outcomes = run_scenario(scenario).outcomes
        key = id(scenario.definitions["omegaB"])
        assert (calls[key], tests[key]) == (1, 5)  # the shared bivector, then four tasks
        assert [(o.result_text, o.detail) for o in outcomes] == (
            [("false", None), ("1", None)] + [("-", "symplectic form must be closed")] * 4)

    def test_degenerate_form_keeps_the_determinant_message(self, monkeypatch):
        # closed, determinant q1^2: each check task inverts once, in the
        # structure, whose determinant failure no fallback could mend
        tasks = ["poisson = check-poisson omega", "jac = check-jacobi omega q2 q2 q2",
                 "jac2 = check-jacobi omega p1 p2 q1", "poisson2 = check-poisson omega"]
        scenario = parse_scenario_text("\n".join(
            ["[chart]", "q1 q2 p1 p2", "[define]", "omega = q1 * d(p1)^d(q1) + d(p2)^d(q2)", "[tasks]", *tasks]))
        calls = self.count_inversions(monkeypatch)
        tests = self.count_closedness_tests(monkeypatch)
        outcomes = run_scenario(scenario).outcomes
        key = id(scenario.definitions["omega"])
        assert calls[key] == tests[key] == len(tasks)
        assert [o.detail for o in outcomes] == ["coefficient matrix needs a constant nonzero determinant"] * 4

    def test_failing_run_frees_its_structures_on_return(self, monkeypatch):
        # a failed build is not kept, so no error's traceback ties the run's
        # structures into a cycle that only the cyclic collector frees
        runs = []

        class Tracked(manifest.Structures):
            def __init__(self):
                super().__init__()
                runs.append(weakref.ref(self))

        monkeypatch.setattr(cli, "Structures", Tracked)
        scenario = parse_scenario_text(self.OPEN_FORM_TASKS)
        gc.disable()
        try:
            outcomes = run_scenario(scenario).outcomes
            assert len(runs) == 1 and runs[0]() is None
        finally:
            gc.enable()
        assert [o.status for o in outcomes].count("error") == 4

    def test_bivector_source_of_the_jacobiator(self):
        rng = random.Random(62)
        for name in ("standard", "field"):
            sym = SymplecticData(self.FORMS[name]())
            for _ in range(4):
                f, g, h = (rand_poly(rng, sym.chart) for _ in range(3))
                assert jacobiator(sym.bivector, f, g, h) == jacobiator(sym, f, g, h)
        chart = darboux_chart(2)
        trivector = Multivector(chart, 3, {(0, 1, 2): 1})
        q1, q2, p1 = coordinates(chart)[:3]
        with pytest.raises(GradeMismatch, match="jacobiator bivector must have grade 2, got 3"):
            jacobiator(trivector, q1, q2, p1)


class TestSupportPairing:
    """Brackets that wedge only onto the generator's support, against the
    pairing of the full wedge of the differentials.  The power brackets and
    derived fields pair against the divided power ``Lambda^k/k!``; their
    oracle pairs against the volume route's generator (that of ``alpha``
    against ``omega^n/n!``), for every ``k = 1..n``.  The Hamiltonian field,
    ``derived_vf`` at ``k = 1``, is also checked against its former loop
    over the inverse bivector's terms."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.one_of(structure_specs, st.sampled_from(CLOSED_SPECS)))
    def test_power_bracket(self, data, spec):
        sym = _structure(spec)
        k = data.draw(st.integers(1, sym.n))
        fs = [data.draw(chart_polys(sym.chart)) for _ in range(2 * k)]
        expected = full_wedge_bracket(volume_route_def(sym, k), *fs)
        assert omega_power_bracket(sym, k, *fs) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.one_of(structure_specs, st.sampled_from(CLOSED_SPECS)))
    def test_derived_vf(self, data, spec):
        sym = _structure(spec)
        k = data.draw(st.integers(1, sym.n))
        fs = [data.draw(chart_polys(sym.chart)) for _ in range(2 * k - 1)]
        assert derived_vf(sym, k, *fs) == full_wedge_derived_vf(sym, k, *fs)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.one_of(structure_specs, st.sampled_from(CLOSED_SPECS)))
    def test_hamiltonian_field(self, data, spec):
        sym = _structure(spec)
        f = data.draw(chart_polys(sym.chart))
        expected = bivector_loop_hamiltonian_vf(sym, f)
        assert derived_vf(sym, 1, f) == expected
        assert hamiltonian_vf(sym, f) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), structure_specs, st.booleans(), st.integers(0, 10**6))
    def test_jacobi_bracket(self, data, spec, inverse, seed):
        sym = _structure(spec)
        chart = sym.chart
        rng = random.Random(seed)
        # the inverse bivector of the form, or a sparse random one
        bivector = sym.bivector if inverse else rand_multivector(rng, chart, 2, density=0.2)
        jdef = JacobiDef(bivector, rand_multivector(rng, chart, 1, density=0.3))
        f, g = data.draw(chart_polys(chart)), data.draw(chart_polys(chart))
        assert jacobi_bracket(jdef, f, g) == full_wedge_jacobi_bracket(jdef, f, g)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), st.sampled_from((0.15, 0.3, 0.6)))
    def test_sparse_generator(self, data, k, density):
        # a constant volume and a sparse alpha: a generator with few terms
        volume = Form(CHART4, 4, {TOP4: 2})
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        bdef = BracketDef(volume, rand_form(rng, CHART4, 4 - k, density=density))
        fs = [data.draw(small_polys) for _ in range(k)]
        assert bracket(bdef, *fs) == full_wedge_bracket(bdef, *fs)


class TestDividedPower:
    """The divided power is built from the cached bivector powers alone."""

    def test_no_volume_route(self, monkeypatch):
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(BracketDef, "__init__", counted("BracketDef", BracketDef.__init__))
        monkeypatch.setattr(SymplecticData, "volume", counted("volume", SymplecticData.volume))
        sym = SymplecticData(_field_form(darboux_chart(3)))
        rng = random.Random(34)
        for k in range(1, sym.n + 1):
            fs = [rand_poly(rng, sym.chart, degree=1) for _ in range(2 * k)]
            omega_power_bracket(sym, k, *fs)
            derived_vf(sym, k, *fs[1:])
        assert calls == {}
        sym.volume()  # the counters are live
        assert calls == {"volume": 1}

    def test_power_is_one_wedge_onto_the_last(self, monkeypatch):
        wedges = Counter()

        def counted(a, b):
            wedges[type(a).__name__] += 1
            return wedge(a, b)

        sym = SymplecticData(_field_form(darboux_chart(3)))
        monkeypatch.setattr(exterior, "wedge", counted)
        for k in range(sym.n + 2):
            for power, kind in ((sym.power, "Form"), (sym.bivector_power, "Multivector")):
                before = wedges[kind]
                power(k)
                power(k)
                # the chain starts at the base: no wedge builds 1 or base^1
                assert wedges[kind] - before == (1 if k >= 2 else 0), (kind, k)
        monkeypatch.undo()
        assert sym.power(1) is sym.omega and sym.bivector_power(1) is sym.bivector
        for k in range(1, sym.n + 2):
            assert sym.power(k) == form_power(sym.omega, k)
            assert sym.bivector_power(k) == wedge_all([sym.bivector] * k)
        # a long chain is a loop, not a recursion
        assert sym.power(2000).is_zero()

    def test_form_power_starts_at_its_base(self, monkeypatch):
        wedges = Counter()

        def counted(a, b):
            wedges["wedge"] += 1
            return wedge(a, b)

        omega = _field_form(darboux_chart(3))
        # the values of the former route, each power one wedge onto the constant one
        expected = [Form.from_polynomial(Polynomial.constant(omega.chart, 1))]
        for _ in range(4):
            expected.append(wedge(expected[-1], omega))
        monkeypatch.setattr(exterior, "wedge", counted)
        for k, value in enumerate(expected):
            before = wedges["wedge"]
            assert form_power(omega, k) == value
            # a^k is k - 1 wedges onto a, and a^0 the constant one, built by no wedge
            assert wedges["wedge"] - before == max(k - 1, 0), k
        assert form_power(omega, 1) is omega
