import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    ConstraintSet,
    DegenerateStructure,
    Polynomial,
    RationalExpr,
    SymplecticData,
    calibrate_normalization,
    coordinates,
    darboux_chart,
    dirac_bracket_form,
    dirac_bracket_matrix,
    magnetic_form,
    omega_power_bracket,
    differential,
    parse_expr,
    regularity_check,
    standard_form,
    wedge,
)

from formcalc import brackets, dirac, exterior

from tests.helpers import (
    full_wedge_dirac_denominator,
    full_wedge_dirac_numerator,
    laplace_adjugate,
    laplace_determinant,
    qp,
    rand_poly,
    two_condition_regularity,
)


def sym_n(n: int) -> SymplecticData:
    return SymplecticData(standard_form(darboux_chart(n)))


def canonical_constraints(sym: SymplecticData, keep: int):
    """Constraints (q_j, p_j) for every pair beyond the first ``keep``."""
    qs, ps = qp(sym.chart)
    thetas = []
    for j in range(keep, sym.n):
        thetas.extend([qs[j], ps[j]])
    return ConstraintSet(sym, thetas)


def counting(calls: Counter, name: str, function):
    """``function``, counting each call under ``name`` in ``calls``."""
    def wrapper(*args):
        calls[name] += 1
        return function(*args)
    return wrapper


_REGULARITY_SYMS = {n: sym_n(n) for n in (2, 3, 4)}


@st.composite
def regularity_cases(draw):
    """A pair or quadruple of constraints on a 4- to 8-dim standard chart:
    random, or with the last one a function of the first (``theta1 *
    p1``, ``theta1^2``, ``2*theta1 + 1``), or all in the q's alone, so that
    they Poisson-commute."""
    sym = _REGULARITY_SYMS[draw(st.sampled_from(sorted(_REGULARITY_SYMS)))]
    count = draw(st.sampled_from([2, 4]))
    kind = draw(st.sampled_from(["random", "product", "square", "scaled", "commuting"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    qs, ps = qp(sym.chart)
    if kind == "commuting":
        thetas = [sum((rng.randint(-3, 3) * rng.choice(qs) ** rng.randint(1, 2) for _ in range(3)),
                      Polynomial.zero(sym.chart)) for _ in range(count)]
    else:
        thetas = [rand_poly(rng, sym.chart) for _ in range(count)]
    last = {"product": lambda t: t * ps[0], "square": lambda t: t ** 2, "scaled": lambda t: 2 * t + 1}
    if kind in last:
        thetas[-1] = last[kind](thetas[0])
    return kind, ConstraintSet(sym, thetas)


class TestRegularity:
    def test_canonical_pair(self):
        sym = sym_n(2)
        assert regularity_check(canonical_constraints(sym, 1))

    def test_commuting_pair_fails(self):
        sym = sym_n(2)
        qs, _ = qp(sym.chart)
        cs = ConstraintSet(sym, [qs[1], qs[0]])
        assert not regularity_check(cs)

    def test_polynomial_determinant(self):
        sym = sym_n(2)
        qs, ps = qp(sym.chart)
        cs = ConstraintSet(sym, [qs[0], qs[0] * ps[0]])
        assert regularity_check(cs)
        assert cs.determinant == qs[0] * qs[0]

    def test_odd_count_rejected(self):
        sym = sym_n(2)
        qs, _ = qp(sym.chart)
        with pytest.raises(DegenerateStructure):
            ConstraintSet(sym, [qs[0]])

    @settings(max_examples=80, deadline=None)
    @given(regularity_cases())
    def test_matches_two_condition_oracle(self, case):
        """``det C != 0`` alone decides regularity: a zero wedge of the
        differentials forces a zero determinant."""
        kind, cs = case
        assert regularity_check(cs) == two_condition_regularity(cs)
        if kind in ("square", "scaled", "commuting"):
            assert not regularity_check(cs)


def hand_oracle_two_constraints(sym, theta1, theta2, f, g):
    """Independent expansion of the corrected bracket for one constraint pair.

    Uses the explicit component formula for the underlying bracket and the
    closed-form inverse of an antisymmetric 2x2 matrix.
    """
    n = sym.n

    def pb(a, b):
        total = Polynomial.zero(sym.chart)
        for i in range(n):
            total = total + a.diff(n + i) * b.diff(i) - a.diff(i) * b.diff(n + i)
        return total

    c12 = pb(theta1, theta2)
    base = pb(f, g)
    # inverse of [[0, c12], [-c12, 0]] is [[0, -1/c12], [1/c12, 0]]
    correction = pb(f, theta1) * (-1) * pb(theta2, g) + pb(f, theta2) * pb(theta1, g)
    return RationalExpr(base * c12 - correction, c12)


class TestMatrixBracket:
    def test_untouched_directions(self):
        sym = sym_n(2)
        qs, ps = qp(sym.chart)
        cs = canonical_constraints(sym, 1)
        value = dirac_bracket_matrix(cs, qs[0], ps[0])
        assert value == omega_power_bracket(sym, 1, qs[0], ps[0])

    def test_constraints_become_casimirs(self):
        sym = sym_n(2)
        cs = canonical_constraints(sym, 1)
        rng = random.Random(50)
        for theta in cs.constraints:
            for _ in range(6):
                g = rand_poly(rng, sym.chart)
                assert dirac_bracket_matrix(cs, theta, g).is_zero()
                assert dirac_bracket_matrix(cs, g, theta).is_zero()

    def test_frozen_shifted_pair(self):
        # theta = (q2, p2 - q1): the corrected {p1, p2} picks up exactly 1
        sym = sym_n(2)
        qs, ps = qp(sym.chart)
        cs = ConstraintSet(sym, [qs[1], ps[1] - qs[0]])
        value = dirac_bracket_matrix(cs, ps[0], ps[1])
        assert value == Polynomial.constant(sym.chart, 1)
        oracle = hand_oracle_two_constraints(sym, qs[1], ps[1] - qs[0], ps[0], ps[1])
        assert value == oracle

    def test_matches_hand_oracle_random(self):
        sym = sym_n(2)
        qs, ps = qp(sym.chart)
        theta1, theta2 = qs[1], ps[1] - qs[0]
        cs = ConstraintSet(sym, [theta1, theta2])
        rng = random.Random(51)
        for _ in range(10):
            f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
            assert dirac_bracket_matrix(cs, f, g) == hand_oracle_two_constraints(
                sym, theta1, theta2, f, g
            )

    def test_linear_constraints_match_laplace_oracle(self):
        # linear constraints have a constant bracket matrix
        sym = sym_n(4)
        chart = sym.chart
        rng = random.Random(53)
        xs = [Polynomial.variable(chart, name) for name in chart.names]
        thetas = [sum((x * rng.randint(-3, 3) for x in xs), Polynomial.zero(chart)) for _ in range(6)]
        cs = ConstraintSet(sym, thetas)
        assert all(entry.is_constant() for row in cs.bracket_matrix for entry in row)
        det = laplace_determinant(cs.bracket_matrix, chart)
        adj = laplace_adjugate(cs.bracket_matrix, chart)
        assert not det.is_zero()
        assert cs.determinant == det
        assert cs.adjugate == adj
        for _ in range(4):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            left = [omega_power_bracket(sym, 1, f, theta) for theta in thetas]
            right = [omega_power_bracket(sym, 1, theta, g) for theta in thetas]
            correction = sum((left[i] * adj[i][j] * right[j] for i in range(6) for j in range(6)),
                             Polynomial.zero(chart))
            value = dirac_bracket_matrix(cs, f, g)
            assert value.denominator == det
            assert value.numerator == omega_power_bracket(sym, 1, f, g) * det - correction

    def test_polynomial_constraints_match_full_matrix(self):
        # the upper triangle and antisymmetry against every entry paired, and
        # the stored differentials against the old correction sum
        sym = sym_n(3)
        chart = sym.chart
        cs = perturbed_constraints(sym, 1)
        thetas = cs.constraints
        size = len(thetas)
        matrix = [[omega_power_bracket(sym, 1, a, b) for b in thetas] for a in thetas]
        assert cs.bracket_matrix == matrix
        assert not all(entry.is_constant() for row in matrix for entry in row)
        assert cs.determinant == laplace_determinant(matrix, chart)
        rng = random.Random(54)
        for _ in range(4):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            left = [omega_power_bracket(sym, 1, f, theta) for theta in thetas]
            right = [omega_power_bracket(sym, 1, theta, g) for theta in thetas]
            correction = sum((left[i] * cs.adjugate[i][j] * right[j]
                              for i in range(size) for j in range(size)), Polynomial.zero(chart))
            value = dirac_bracket_matrix(cs, f, g)
            assert value.denominator == cs.determinant
            assert value.numerator == omega_power_bracket(sym, 1, f, g) * cs.determinant - correction

    def test_each_differential_and_entry_once(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(dirac, "differential", counting(calls, "constraint", dirac.differential))
        monkeypatch.setattr(brackets, "differential", counting(calls, "argument", brackets.differential))
        monkeypatch.setattr(exterior._Generator, "pair", counting(calls, "pairing", exterior._Generator.pair))
        sym = sym_n(3)
        cs = perturbed_constraints(sym, 1)
        # four differentials, and the six entries above the diagonal
        assert calls == {"constraint": 4, "pairing": 6}
        calls.clear()
        qs, ps = qp(sym.chart)
        dirac_bracket_matrix(cs, qs[0] * ps[1], ps[0] + qs[2])
        # df and dg once; {f, g}, then {f, theta_i} and {g, theta_i} for each i
        assert calls == {"argument": 2, "pairing": 9}

    def test_matrix_route_builds_no_wedge(self, monkeypatch):
        calls = Counter()
        for module in (exterior, dirac):
            monkeypatch.setattr(module, "wedge", counting(calls, "wedge", module.wedge))
            monkeypatch.setattr(module, "wedge_all", counting(calls, "wedge_all", module.wedge_all))
        # a cold structure: the constraint set builds its divided power, Lambda itself
        sym = sym_n(3)
        cs = perturbed_constraints(sym, 1)
        qs, ps = qp(sym.chart)
        assert regularity_check(cs)
        dirac_bracket_matrix(cs, qs[0] * ps[1], ps[0] + qs[2])
        assert calls == {}
        # the counters are live: the form route's factors are built by wedges
        cs.form_factors()
        assert calls["wedge_all"] == 1 and calls["wedge"] > 0

    def test_antisymmetry_and_leibniz(self):
        sym = sym_n(2)
        cs = canonical_constraints(sym, 1)
        rng = random.Random(52)
        for _ in range(8):
            f, g, h = (rand_poly(rng, sym.chart) for _ in range(3))
            assert dirac_bracket_matrix(cs, f, g) == -(dirac_bracket_matrix(cs, g, f))
            left = dirac_bracket_matrix(cs, f * g, h)
            right = dirac_bracket_matrix(cs, g, h) * f + dirac_bracket_matrix(cs, f, h) * g
            assert left == right

    def test_jacobi_identity_constant_determinant(self):
        sym = sym_n(2)
        cs = canonical_constraints(sym, 1)
        assert cs.determinant.is_constant()
        rng = random.Random(53)
        for _ in range(8):
            f, g, h = (rand_poly(rng, sym.chart) for _ in range(3))
            db = lambda a, b: dirac_bracket_matrix(cs, a, b).as_polynomial()
            total = db(f, db(g, h)) + db(g, db(h, f)) + db(h, db(f, g))
            assert total.is_zero()

    def test_irregular_set_rejected(self):
        sym = sym_n(2)
        qs, _ = qp(sym.chart)
        cs = ConstraintSet(sym, [qs[1], qs[0]])
        with pytest.raises(DegenerateStructure):
            dirac_bracket_matrix(cs, qs[0], qs[1])


def perturbed_constraints(sym: SymplecticData, keep: int):
    """``(q_j + q1*p1, p_j - q1^2 + q_j*p1)`` for every pair beyond the first
    ``keep``: regular, with a non-constant determinant."""
    qs, ps = qp(sym.chart)
    thetas = []
    for j in range(keep, sym.n):
        thetas.extend([qs[j] + qs[0] * ps[0], ps[j] - qs[0] * qs[0] + qs[j] * ps[0]])
    return ConstraintSet(sym, thetas)


def magnetic_syms():
    chart = darboux_chart(3)
    qs, _ = qp(chart)
    constant = [Polynomial.constant(chart, c) for c in (1, 2, 3)]
    return [SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0])),
            SymplecticData(magnetic_form(chart, *constant))]


class TestFormBracket:
    GRID = [(2, 1), (3, 1), (3, 2)]
    EXPECTED_CONSTANTS = {(2, 1): Fraction(1), (3, 1): Fraction(1, 2), (3, 2): Fraction(1)}

    def grid_case(self, n, k):
        sym = sym_n(n)
        return sym, canonical_constraints(sym, n - k)

    def wide_cases(self):
        """Standard forms for n = 2..4 and the linear and constant magnetic
        forms, with canonical and perturbed constraints, k = 1..n-1."""
        syms = [sym_n(n) for n in (2, 3, 4)] + magnetic_syms()
        for sym in syms:
            for k in range(1, sym.n):
                for build in (canonical_constraints, perturbed_constraints):
                    cs = build(sym, sym.n - k)
                    assert regularity_check(cs)
                    yield sym, cs

    def cases(self):
        return [self.grid_case(n, k) for n, k in self.GRID] + list(self.wide_cases())

    def test_calibration_grid(self):
        for n, k in self.GRID:
            sym, cs = self.grid_case(n, k)
            constant = calibrate_normalization(cs)
            assert constant == self.EXPECTED_CONSTANTS[(n, k)]
            assert constant == Fraction(1, n - k)
        rng = random.Random(57)
        for sym, cs in self.wide_cases():
            assert calibrate_normalization(cs) == Fraction(1, sym.n - cs.half_count)
            f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
            assert dirac_bracket_form(cs, f, g) == dirac_bracket_matrix(cs, f, g)

    def test_calibration_takes_one_form_quotient(self, monkeypatch):
        """Calibration evaluates the matrix bracket on the unordered
        coordinate pairs up to the first nonzero one, index ``j``, which
        every regular set has: ``j + 1`` brackets.  The zero ones are skipped
        before their form quotient is taken, so it takes exactly one."""
        cases = self.cases()
        firsts = []
        for sym, cs in cases:
            nonzero = [not dirac_bracket_matrix(cs, f, g).is_zero()
                       for f, g in combinations(coordinates(sym.chart), 2)]
            assert any(nonzero)
            firsts.append(nonzero.index(True))
        calls = Counter()
        monkeypatch.setattr(dirac, "dirac_bracket_matrix", counting(calls, "matrix", dirac.dirac_bracket_matrix))
        monkeypatch.setattr(dirac, "_form_quotient", counting(calls, "quotient", dirac._form_quotient))
        for (sym, cs), first in zip(cases, firsts):
            calls.clear()
            calibrate_normalization(cs)
            assert calls == {"matrix": first + 1, "quotient": 1}
        assert max(firsts) > 0

    def test_reversed_pair_negates_the_bracket(self):
        rng = random.Random(58)
        for sym, cs in self.cases():
            pairs = list(combinations(coordinates(sym.chart), 2))
            pairs += [(rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)) for _ in range(3)]
            for f, g in pairs:
                assert dirac_bracket_matrix(cs, g, f) == -dirac_bracket_matrix(cs, f, g)

    def test_first_class_set_has_no_reference_form(self):
        sym = sym_n(2)
        qs, _ = qp(sym.chart)
        with pytest.raises(DegenerateStructure) as err:
            ConstraintSet(sym, qs).form_factors()
        assert str(err.value) == "reference top form vanishes"

    def test_calibration_stability(self):
        rng = random.Random(54)
        for n, k in self.GRID:
            sym, cs = self.grid_case(n, k)
            assert calibrate_normalization(cs) == Fraction(1, n - k)
            for _ in range(20):
                f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
                assert dirac_bracket_form(cs, f, g) == dirac_bracket_matrix(cs, f, g)
        for sym, cs in self.wide_cases():
            assert calibrate_normalization(cs) == Fraction(1, sym.n - cs.half_count)
            for _ in range(5):
                f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
                assert dirac_bracket_form(cs, f, g) == dirac_bracket_matrix(cs, f, g)

    def test_degenerate_arguments_vanish(self):
        sym, cs = self.grid_case(2, 1)
        rng = random.Random(55)
        f = rand_poly(rng, sym.chart)
        assert dirac_bracket_form(cs, f, f).is_zero()
        assert dirac_bracket_form(cs, cs.constraints[0], f).is_zero()

    def test_nonconstant_determinant_pipeline_agreement(self):
        sym = sym_n(2)
        qs, ps = qp(sym.chart)
        cs = ConstraintSet(sym, [qs[1], qs[1] * ps[1]])
        assert regularity_check(cs)
        assert not cs.determinant.is_constant()
        assert calibrate_normalization(cs) == Fraction(1)
        rng = random.Random(56)
        for _ in range(10):
            f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
            assert dirac_bracket_form(cs, f, g) == dirac_bracket_matrix(cs, f, g)

    def test_calibration_needs_fewer_pairs_than_degrees_of_freedom(self):
        from formcalc import GradeMismatch

        sym = sym_n(2)
        with pytest.raises(GradeMismatch):
            calibrate_normalization(canonical_constraints(sym, 0))

    def test_form_factors_built_once(self):
        sym, cs = self.grid_case(3, 1)
        assert cs.form_factors() is cs.form_factors()

    def test_form_factors_never_build_omega_m(self, monkeypatch):
        """The denominator is ``<omega, *(Theta ^ omega^{m-1})>``, so the
        only power of the form taken is ``omega^{m-1}``."""
        powers = []
        power = SymplecticData.power

        def recorded(sym, k):
            powers.append(k)
            return power(sym, k)

        monkeypatch.setattr(SymplecticData, "power", recorded)
        for sym, cs in self.wide_cases():
            powers.clear()
            cs.form_factors()
            assert powers == [sym.n - cs.half_count - 1]

    def test_no_wedge_after_form_factors(self, monkeypatch):
        wedges = Counter()

        def counted(a, b):
            wedges["wedge"] += 1
            return wedge(a, b)

        sym = sym_n(3)
        cs = perturbed_constraints(sym, 1)
        cs.form_factors()
        monkeypatch.setattr(exterior, "wedge", counted)
        monkeypatch.setattr(dirac, "wedge", counted)
        qs, ps = qp(sym.chart)
        value = dirac_bracket_form(cs, qs[0] * ps[1], ps[0] + qs[2])
        assert wedges == {}
        # the counters are live: a new set builds its factors by wedges
        assert dirac_bracket_form(perturbed_constraints(sym, 1), qs[0] * ps[1], ps[0] + qs[2]) == value
        assert wedges["wedge"] > 0

    def test_too_many_constraints_rejected(self):
        from formcalc import GradeMismatch

        sym = sym_n(2)
        cs = canonical_constraints(sym, 0)
        qs, _ = qp(sym.chart)
        with pytest.raises(GradeMismatch):
            dirac_bracket_form(cs, qs[0], qs[1])


# the standard forms of TestFormBracket.GRID and both magnetic forms, on
# which the pairing identity must hold as well
FORM_ORACLE_STRUCTURES = {"standard-2": lambda: sym_n(2), "standard-3": lambda: sym_n(3),
                          "magnetic-linear": lambda: magnetic_syms()[0],
                          "magnetic-constant": lambda: magnetic_syms()[1]}
FORM_ORACLE_PAIRS = [(f"standard-{n}", k) for n, k in TestFormBracket.GRID] + [
    (name, k) for name in ("magnetic-linear", "magnetic-constant") for k in (1, 2)]
# (structure, k, constraint builder)
FORM_ORACLE_CASES = [(name, k, build) for name, k in FORM_ORACLE_PAIRS
                     for build in (canonical_constraints, perturbed_constraints)]
_FORM_ORACLE_SETS = {}


class TestFormNumeratorOracle:
    """The form route's numerator and denominator, the pairings of
    ``df^dg`` and ``omega`` with ``*(Theta ^ omega^{m-1})``, against the top
    coefficients of the full wedges ``df^dg ^ Theta ^ omega^{m-1}`` and
    ``Theta ^ omega^m`` that they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(FORM_ORACLE_CASES), st.integers(0, 10**6))
    def test_matches_full_wedge(self, case, seed):
        if case not in _FORM_ORACLE_SETS:
            name, k, build = case
            sym = FORM_ORACLE_STRUCTURES[name]()
            cs = build(sym, sym.n - k)
            _FORM_ORACLE_SETS[case] = sym, cs, full_wedge_dirac_denominator(cs)
        sym, cs, denominator = _FORM_ORACLE_SETS[case]
        rng = random.Random(seed)
        f, g = rand_poly(rng, sym.chart), rand_poly(rng, sym.chart)
        expected = full_wedge_dirac_numerator(cs, f, g)
        generator, reference = cs.form_factors()
        assert generator.pair([differential(f), differential(g)]) == expected
        assert reference == denominator
        quotient = dirac._form_quotient(cs, f, g)
        assert (quotient.numerator, quotient.denominator) == (expected, denominator)


class TestReduction:
    def test_matches_reduced_chart(self):
        expressions = [
            ("p1", "q1"),
            ("q1^2 - p1", "q1*p1"),
            ("q1 + 2*p1", "p1^2"),
        ]
        for n, keep in ((2, 1), (3, 1)):
            sym = sym_n(n)
            cs = canonical_constraints(sym, keep)
            reduced_sym = sym_n(keep)
            for left, right in expressions:
                f_big = parse_expr(left, sym.chart)
                g_big = parse_expr(right, sym.chart)
                f_small = parse_expr(left, reduced_sym.chart)
                g_small = parse_expr(right, reduced_sym.chart)
                big = dirac_bracket_matrix(cs, f_big, g_big).as_polynomial()
                small = omega_power_bracket(reduced_sym, 1, f_small, g_small)
                assert str(big) == str(small)
