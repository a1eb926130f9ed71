import ast
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formcalc import (
    AlgebraError,
    Chart,
    ChartMismatch,
    DegreeOverflow,
    DivisionByZero,
    InvalidArgument,
    JacobiDef,
    Multivector,
    NotDivisible,
    ParseError,
    Polynomial,
    RationalExpr,
    coordinate_field,
    coordinates,
    darboux_chart,
    exact_divide,
    homogenization_check,
    matrix_adjugate,
    matrix_determinant,
    parse_expr,
    parse_scenario,
    run_suite,
    suite_names,
)
from formcalc import poly as poly_module
from formcalc.cli import run_scenario

from tests.helpers import (
    ExpPoly,
    LegacyPolynomial,
    fraction_gauss_jordan,
    inplace_bareiss,
    laplace_adjugate,
    laplace_determinant,
    legacy_bareiss,
    legacy_exact_divide,
    legacy_polynomial_str,
    pulled_back_form,
    rand_nonzero_poly,
    rand_poly,
    table_negated_inverse,
    table_skew_inverse,
)

ROOT = Path(__file__).resolve().parent.parent
CHART = Chart(("q1", "p1"))
Q1, P1 = coordinates(CHART)


def poly(terms):
    return Polynomial(CHART, terms)


coefficients = st.integers(-4, 4).map(Fraction)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polynomials = st.dictionaries(exponents, coefficients, max_size=4).map(poly)


NOT_NAMES = (5, None, 1.5, ("q",), ["q"], b"q")


class TestChart:
    """A coordinate name that is not a string is an invalid name, never a
    ``TypeError`` from the name check or a hash."""

    @pytest.mark.parametrize("name", NOT_NAMES, ids=repr)
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValueError, match="invalid coordinate name"):
            Chart(["q", name])

    @pytest.mark.parametrize("name", NOT_NAMES, ids=repr)
    def test_extended_by_non_string_rejected(self, name):
        with pytest.raises(ValueError, match="invalid coordinate name"):
            CHART.extended(name)

    def test_extended_by_taken_or_invalid_name_rejected(self):
        chart = Chart(("x", "s"))
        with pytest.raises(ValueError, match="coordinate 's' is already in use"):
            chart.extended("s")
        with pytest.raises(ValueError, match="invalid coordinate name '9s'"):
            chart.extended("9s")

    def test_equal_charts_hash_equal(self):
        assert Chart(["q1", "p1"]) == CHART and hash(Chart(["q1", "p1"])) == hash(CHART)

    @pytest.mark.parametrize("name", NOT_NAMES, ids=repr)
    def test_non_string_is_not_a_member(self, name):
        assert name not in CHART
        with pytest.raises(ValueError, match="unknown coordinate"):
            CHART.index(name)


class TestArithmetic:
    def test_cancellation(self):
        assert (Q1 + P1) + (Q1 - P1) == 2 * Q1

    def test_square(self):
        assert Q1 * Q1 == poly({(2, 0): 1})

    def test_difference_of_squares(self):
        assert (Q1 + 1) * (Q1 - 1) == Q1 ** 2 - 1

    def test_chart_mismatch(self):
        other = Polynomial.variable(Chart(("x",)), "x")
        with pytest.raises(ChartMismatch):
            Q1 + other

    def test_zero_terms_dropped(self):
        assert poly({(1, 0): 0}).is_zero()
        assert (Q1 - Q1).terms == {}

    @given(polynomials, polynomials, polynomials)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(polynomials)
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()


class TestDerivative:
    def test_power_rule(self):
        assert (Q1 ** 2).diff(0) == 2 * Q1

    def test_missing_variable(self):
        assert (Q1 ** 2).diff(1).is_zero()

    def test_product(self):
        assert (Q1 * P1).diff(1) == Q1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Q1.diff(5)

    @given(polynomials)
    def test_mixed_partials_commute(self, p):
        assert p.diff(0).diff(1) == p.diff(1).diff(0)


class TestExactDivide:
    def test_factorization(self):
        assert exact_divide(Q1 ** 2 - 1, Q1 - 1) == Q1 + 1

    def test_self(self):
        assert exact_divide(Q1, Q1) == Polynomial.constant(CHART, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(Q1, P1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(Q1, Polynomial.zero(CHART))

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(40):
            a = rand_poly(rng, CHART)
            b = rand_nonzero_poly(rng, CHART)
            assert exact_divide(a * b, b) == a


class TestReading:
    P = Polynomial(CHART, {(2, 0): 1, (0, 1): Fraction(-3, 2)})

    def test_terms_view(self):
        assert self.P.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)}
        assert len(self.P.terms) == 2
        assert all(type(c) is Fraction for c in self.P.terms.values())
        assert self.P.terms.get((0, 0)) is None and self.P.terms.get((1,)) is None
        with pytest.raises(TypeError):
            self.P.terms[(1, 1)] = Fraction(1)

    def test_items_and_coefficient(self):
        assert sorted(self.P.items()) == [((0, 1), Fraction(-3, 2)), ((2, 0), Fraction(1))]
        assert all(type(c) is Fraction for _, c in self.P.items())
        assert self.P.coefficient((2, 0)) == 1 and type(self.P.coefficient((2, 0))) is Fraction
        assert self.P.coefficient((1, 1)) == 0
        assert self.P.term_count() == 2 and Polynomial.zero(CHART).term_count() == 0

    def test_extended_to(self):
        wide = CHART.extended("s")
        p = self.P * Q1 ** 3 + P1 ** 7
        q = p.extended_to(wide)
        assert q.chart == wide
        assert q.terms == {e + (0,): c for e, c in p.terms.items()}
        assert str(q) == str(p)
        s = Polynomial.variable(wide, "s")
        assert (q * s).diff(2) == q
        with pytest.raises(ChartMismatch):
            p.extended_to(Chart(("p1", "q1", "s")))


class TestScaling:
    def test_one_returns_the_operand(self):
        p = Q1 * P1 + 2
        assert p * 1 is p
        assert 1 * p is p
        assert p * Fraction(1) is p
        assert p * Polynomial.constant(CHART, 1) is p
        assert Polynomial.constant(CHART, 1) * p is p

    def test_zero_and_monomial_factors(self):
        p = Q1 * P1 + 2
        assert (p * 0).is_zero() and (p * Polynomial.zero(CHART)).is_zero()
        assert p * (3 * Q1 ** 2) == poly({(3, 1): 3, (2, 0): 6})
        assert (p / 2) * 2 == p


class TestDegreeCap:
    def test_constructor_validates_exponents(self):
        Polynomial(CHART, {(2 ** 32 - 1, 0): 1})
        for exponent in ((2 ** 32, 0), (2 ** 31, 2 ** 31)):
            with pytest.raises(DegreeOverflow):
                Polynomial(CHART, {exponent: 1})
        for exponent in ((1,), (1, 0, 0), (-1, 2), (1.0, 0)):
            with pytest.raises(ValueError):
                Polynomial(CHART, {exponent: 1})

    def test_fields_do_not_carry(self):
        top = Polynomial(CHART, {(2 ** 32 - 2, 0): 1})
        p = top * (Q1 + P1)
        assert p.terms == {(2 ** 32 - 1, 0): 1, (2 ** 32 - 2, 1): 1}
        assert str(p) == "q1^4294967295 + q1^4294967294*p1"
        assert p.diff(0).terms == {(2 ** 32 - 2, 0): 2 ** 32 - 1, (2 ** 32 - 3, 1): 2 ** 32 - 2}
        legacy = LegacyPolynomial(CHART, p.terms)
        partials = poly_module._partials(p * Fraction(1, 3))
        for i in (0, 1):
            assert partials[i].terms == (legacy.diff(i) * Fraction(1, 3)).terms
            assert partials[i]._degree == 2 ** 32 - 1
        assert exact_divide(p, top) == Q1 + P1
        with pytest.raises(DegreeOverflow):
            p * Q1
        with pytest.raises(DegreeOverflow):
            p * (Q1 + 1)

    def test_power_checks_the_bound_before_multiplying(self):
        base = (Q1 ** 1000) ** 1000  # degree 10^6
        assert ((base ** 1000) * base).terms == {(10 ** 9 + 10 ** 6, 0): 1}
        with pytest.raises(DegreeOverflow):
            base ** 5000
        with pytest.raises(DegreeOverflow):
            (base ** 1000) ** 5

    def test_power_of_one_term_is_one_step(self):
        # a billion one-term products would take about 48 minutes
        start = time.perf_counter()
        assert (Q1 ** 10 ** 6).terms == {(10 ** 6, 0): 1}
        assert (Fraction(-2, 3) * Q1 * P1 ** 2) ** 10 ** 6 == Polynomial(
            CHART, {(10 ** 6, 2 * 10 ** 6): Fraction(2, 3) ** 10 ** 6})
        assert time.perf_counter() - start < 1
        assert Q1 ** 0 == 1 and Polynomial.zero(CHART) ** 0 == 1
        assert (Polynomial.zero(CHART) ** 10 ** 9).is_zero()
        with pytest.raises(DegreeOverflow):
            Q1 ** 2 ** 32

    def test_nested_parser_powers(self):
        assert parse_expr("((q1^1000)^1000)^1000", CHART).terms == {(10 ** 9, 0): 1}
        for text in ("(((q1^1000)^1000)^1000)^1000", "x * x * x * x * x"):
            with pytest.raises(ParseError, match="total degree would reach 2") as info:
                parse_expr(text, CHART, {"x": ((Q1 ** 1000) ** 1000) ** 1000})
            assert isinstance(info.value.__cause__, DegreeOverflow)


class TestSealed:
    """Only ``formcalc.poly`` knows how a polynomial stores its terms."""

    def test_no_module_names_the_packed_layout(self):
        private = re.compile(r"\._terms\b|\._degree\b|\b(_pack|_unpack|_key_of|_make|_BITS|_MASK)\b")
        modules = sorted((ROOT / "src" / "formcalc").glob("*.py"))
        assert len(modules) > 5
        for path in modules:
            if path.name != "poly.py":
                assert not private.search(path.read_text()), path.name

    def test_no_module_reads_polynomial_terms(self, monkeypatch):
        readers = set()
        view = Polynomial.terms

        def spy(p):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("formcalc") and caller != "formcalc.poly":
                readers.add(caller)
            return view.fget(p)

        monkeypatch.setattr(Polynomial, "terms", property(spy))
        exec("p.terms", {"__name__": "formcalc.probe", "p": Q1})
        assert readers == {"formcalc.probe"}
        readers.clear()
        for path in sorted((ROOT / "scenarios").glob("*.scn")):
            report = run_scenario(parse_scenario(path))
            report.render(machine=False)
            report.render(machine=True)
        for name in suite_names():
            assert run_suite(name, None)[0]
        contact = Chart(("x", "y", "z"))
        x, y, z = coordinates(contact)
        jdef = JacobiDef(Multivector(contact, 2, {(0, 1): 1, (1, 2): -y}), coordinate_field(contact, "z"))
        assert homogenization_check(jdef, x * y + z, y ** 2 - 3 * z)
        assert readers == set()


class TestRationalExpr:
    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalExpr(Q1, Polynomial.zero(CHART))

    def test_cross_multiplication_equality(self):
        a = RationalExpr(Q1, P1)
        b = RationalExpr(Q1 * (Q1 + 1), P1 * (Q1 + 1))
        assert a == b

    def test_equivalence_relation(self):
        rng = random.Random(2024)
        for _ in range(25):
            num = rand_poly(rng, CHART)
            den = rand_nonzero_poly(rng, CHART)
            s1 = rand_nonzero_poly(rng, CHART)
            s2 = rand_nonzero_poly(rng, CHART)
            r1 = RationalExpr(num, den)
            r2 = RationalExpr(num * s1, den * s1)
            r3 = RationalExpr(num * s1 * s2, den * s1 * s2)
            assert r1 == r1
            assert (r1 == r2) and (r2 == r1)
            assert (r1 == r2) and (r2 == r3) and (r1 == r3)

    def test_as_polynomial(self):
        r = RationalExpr((Q1 ** 2 - 1) * P1, Q1 - 1)
        assert r.as_polynomial() == (Q1 + 1) * P1

    def test_as_constant(self):
        r = RationalExpr(3 * (Q1 + 1), (Q1 + 1) * 2)
        assert r.as_constant() == Fraction(3, 2)
        assert RationalExpr(Polynomial.zero(CHART), Q1 + 1).as_constant() == Fraction(0)

    @given(polynomials.filter(lambda p: not p.is_zero()), polynomials,
           st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
           st.sampled_from(("constant", "multiple", "shifted", "free", "zero")))
    def test_as_constant_matches_the_division(self, den, other, c, kind):
        # the leading-coefficient ratio against exact division: constant
        # quotients, divisible ones with unequal leading keys, equal leading
        # keys off by a constant, free numerators and a zero one, over
        # Fraction coefficients; equal values, or equal errors and messages
        den = den * Fraction(2, 3)
        num = {"constant": den * c, "multiple": den * other, "shifted": den * c + 1, "free": other * c,
               "zero": Polynomial.zero(CHART)}[kind]

        def outcome(route):
            try:
                return route()
            except AlgebraError as exc:
                return type(exc), str(exc)

        value = outcome(RationalExpr(num, den).as_constant)
        assert value == outcome(lambda: exact_divide(num, den).constant_value())
        if kind in ("constant", "zero"):
            assert value == (c if kind == "constant" else 0) and type(value) is Fraction

    def test_arithmetic(self):
        half = RationalExpr(Polynomial.constant(CHART, 1), Polynomial.constant(CHART, 2))
        assert half + half == 1
        assert half * 2 == 1
        assert (half - half).is_zero()
        assert half / half == 1


class TestExpPoly:
    """The test suite's ``exp(w*s)`` algebra, the oracle of ``homogenization_check``."""

    S_CHART = Chart(("x", "s"))
    S = 1  # index of the distinguished coordinate

    def exp(self, weight):
        return ExpPoly.exponential(self.S_CHART, self.S, weight)

    def test_weights_add(self):
        assert self.exp(1) * self.exp(1) == self.exp(2)

    def test_derivative_of_weighted_term(self):
        f = Polynomial.variable(self.S_CHART, "x")
        ef = ExpPoly.from_polynomial(f, self.S, weight=1)
        assert ef.diff(self.S) == ef

    def test_weight_cancellation(self):
        assert self.exp(-2) * (self.exp(1) * self.exp(1)) == ExpPoly.from_polynomial(
            Polynomial.constant(self.S_CHART, 1), self.S
        )

    def test_derivative_includes_coefficient(self):
        s_poly = Polynomial.variable(self.S_CHART, "s")
        e = ExpPoly.from_polynomial(s_poly, self.S, weight=3)
        expected = ExpPoly.from_polynomial(
            s_poly * 3 + 1, self.S, weight=3
        )
        assert e.diff(self.S) == expected

    def test_chart_must_match(self):
        with pytest.raises(ChartMismatch):
            self.exp(1) + ExpPoly.exponential(Chart(("a", "s")), 1, 1)


class TestMatrixHelpers:
    def test_adjugate_identity(self):
        rng = random.Random(7)
        chart = Chart(("x", "y"))
        for size in (2, 4, 6):
            rows = [[Polynomial.zero(chart)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    rows[i][j] = rand_poly(rng, chart, degree=1, nterms=2)
                    rows[j][i] = -rows[i][j]
            det = matrix_determinant(rows, chart)
            adj = matrix_adjugate(rows, chart)
            for i in range(size):
                for j in range(size):
                    entry = Polynomial.zero(chart)
                    for k in range(size):
                        entry = entry + adj[i][k] * rows[k][j]
                    expected = det if i == j else Polynomial.zero(chart)
                    assert entry == expected

    @pytest.mark.parametrize("function", [matrix_determinant, matrix_adjugate])
    @pytest.mark.parametrize("shape", ["1x2", "ragged"])
    def test_non_square_rejected(self, function, shape):
        rows = [[Q1, P1]] if shape == "1x2" else [[Q1, P1], [Q1]]
        with pytest.raises(ValueError, match="matrix must be square"):
            function(rows, CHART)

    @pytest.mark.parametrize("function", [matrix_determinant, matrix_adjugate])
    @pytest.mark.parametrize("entry", ["constant", "polynomial"])
    def test_foreign_chart_rejected(self, function, entry):
        # the chart is checked before the size and the skew pattern
        other = Chart(("a", "b"))
        foreign = Polynomial.constant(other, 2) if entry == "constant" else Polynomial.variable(other, "a")
        with pytest.raises(ChartMismatch):
            function([[foreign]], CHART)
        one, zero = Polynomial.constant(CHART, 1), Polynomial.zero(CHART)
        with pytest.raises(ChartMismatch):
            function([[one, zero], [zero, foreign]], CHART)


def _constant_matrix(values):
    return [[Polynomial.constant(CHART, x) for x in row] for row in values]


def _upper_of(values):
    """The upper triangle of the skew ``values`` as constants, zeros included."""
    m = len(values)
    return {(i, j): Polynomial.constant(CHART, values[i][j]) for i in range(m) for j in range(i + 1, m)}


def _skew_inverse_of(rows):
    """``poly._skew_inverse`` on the upper triangle of ``rows``, zero entries
    included, as ``ConstraintSet`` passes it."""
    m = len(rows)
    return poly_module._skew_inverse({(i, j): rows[i][j] for i in range(m) for j in range(i + 1, m)}, m, CHART)


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
even_sizes = st.sampled_from((2, 4, 6))


@st.composite
def dense_matrices(draw):
    m = draw(st.integers(1, 7))
    return [[draw(rationals) for _ in range(m)] for _ in range(m)]


@st.composite
def skew_matrices(draw, sizes=even_sizes, entries=rationals):
    m = draw(sizes)
    values = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            values[i][j] = draw(entries)
            values[j][i] = -values[i][j]
    return values


@st.composite
def polynomial_matrices(draw):
    m = draw(st.integers(1, 4))
    return [[draw(polynomials) for _ in range(m)] for _ in range(m)]


nonzero_polynomials = st.dictionaries(exponents, coefficients.filter(bool), min_size=1, max_size=2).map(poly)
sparse_polynomials = st.just({}).map(poly) | nonzero_polynomials


@st.composite
def skew_polynomial_matrices(draw, sizes=even_sizes):
    """Skew matrices of polynomials.  The entries ``(0, 1), (2, 3), ...`` are
    nonzero, so the Pfaffian usually is too; about half of the others are
    zero."""
    m = draw(sizes)
    rows = [[Polynomial.zero(CHART)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            matched = i % 2 == 0 and j == i + 1
            rows[i][j] = draw(nonzero_polynomials if matched else sparse_polynomials)
            rows[j][i] = -rows[i][j]
    return rows


@st.composite
def singular_constant_skew_matrices(draw, sizes=even_sizes, entries=rationals):
    """``X S X^T`` for a skew ``S`` of even size ``r <= m - 2`` and an
    ``m x r`` matrix ``X``: skew of rank at most ``r``, so singular."""
    m = draw(sizes)
    r = draw(st.sampled_from(range(0, m - 1, 2)))
    s = draw(skew_matrices(st.just(r), entries))
    x = [[draw(entries) for _ in range(r)] for _ in range(m)]
    return [[sum(x[i][a] * s[a][b] * x[j][b] for a in range(r) for b in range(r))
             for j in range(m)] for i in range(m)]


class TestMatrixOracle:
    """Both sweeps against plain Laplace expansion, on even skew matrices."""

    def check(self, rows):
        det = matrix_determinant(rows, CHART)
        adj = matrix_adjugate(rows, CHART)
        assert det == laplace_determinant(rows, CHART)
        assert adj == laplace_adjugate(rows, CHART)
        # the determinant of the adjugate's own route is the same polynomial
        assert _skew_inverse_of(rows) == (det, adj)
        m = len(rows)
        for i in range(m):
            for j in range(m):
                entry = sum((adj[i][k] * rows[k][j] for k in range(m)), Polynomial.zero(CHART))
                assert entry == (det if i == j else 0)
        return det, adj

    @settings(max_examples=80, deadline=None)
    @given(skew_matrices())
    def test_constant(self, values):
        self.check(_constant_matrix(values))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_zero(self, m):
        # the zero matrix is skew; only the even sizes are in the domain
        rows = _constant_matrix([[0] * m for _ in range(m)])
        if m % 2:
            for function in (matrix_determinant, matrix_adjugate):
                with pytest.raises(ValueError, match="even size"):
                    function(rows, CHART)
        else:
            det, adj = self.check(rows)
            assert det.is_zero() and all(entry.is_zero() for row in adj for entry in row)

    @settings(max_examples=60, deadline=None)
    @given(skew_polynomial_matrices())
    def test_polynomial(self, rows):
        self.check(rows)


wide_sizes = st.sampled_from(range(2, 17, 2))
integer_entries = st.integers(-9, 9)
# coprime denominators, so the common denominator L is often their product
coprime_entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7)))


class TestEliminationOracle:
    """The fraction-free route of constant matrices against the ``Fraction``
    Gauss-Jordan pass it replaced, at sizes 2-16, past the Laplace oracle's
    reach: ``_skew_inverse`` must give the oracle's ``det`` and
    ``det * inverse`` (the zero adjugate when singular)."""

    def check(self, values):
        rows = _constant_matrix(values)
        det, inverse = fraction_gauss_jordan(values)
        m = len(values)
        if inverse is None:
            adj = [[Polynomial.zero(CHART)] * m for _ in range(m)]
        else:
            adj = [[Polynomial.constant(CHART, det * x) for x in row] for row in inverse]
        expected = Polynomial.constant(CHART, det)
        assert _skew_inverse_of(rows) == (expected, adj)
        assert matrix_determinant(rows, CHART) == expected

    @settings(max_examples=40, deadline=None)
    @given(skew_matrices(wide_sizes, integer_entries))
    def test_integer(self, values):
        self.check(values)

    @settings(max_examples=40, deadline=None)
    @given(skew_matrices(wide_sizes, coprime_entries))
    def test_coprime_denominators(self, values):
        self.check(values)

    @settings(max_examples=30, deadline=None)
    @given(singular_constant_skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_singular(self, values):
        assert fraction_gauss_jordan(values)[1] is None
        self.check(values)


class TestInPlaceElimination:
    """``inplace_bareiss``, which keeps ``m`` integers per row, against
    ``legacy_bareiss``, which updated the whole of ``[A | I]``: the same
    ``(L, sign, prev, X)`` integers, or ``None`` for a singular matrix."""

    def check(self, values):
        upper = _upper_of(values)
        solved = inplace_bareiss(upper, len(values))
        assert solved == legacy_bareiss(upper, len(values))
        return solved

    @settings(max_examples=60, deadline=None)
    @given(skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_matches_legacy(self, values):
        self.check(values)

    @settings(max_examples=40, deadline=None)
    @given(singular_constant_skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_singular_matches_legacy(self, values):
        assert self.check(values) is None

    def test_three_pivot_swaps(self):
        # the 6-dim form of the CI case: Bareiss's pivots swap rows (0, 1),
        # (2, 3) and (4, 5), and L = lcm(2, 3) = 6.  The sweep pivots on
        # (0, 1), (2, 3) and (4, 5) with no swap, and its p^2 is det(A)
        upper = {(0, 3): 1, (0, 1): Fraction(1, 2), (1, 4): 3, (2, 3): Fraction(-2, 3),
                 (2, 5): 1, (4, 5): 5, (1, 2): -1}
        values = [[Fraction(0)] * 6 for _ in range(6)]
        for (i, j), x in upper.items():
            values[i][j], values[j][i] = Fraction(x), -Fraction(x)
        _, sign, prev, _ = self.check(values)
        scale, p, block = TestPfaffianSweep().check(values)
        assert scale == 6 and p * p == sign * prev
        # -M^-1 = -L*T/p holds the brackets {x1,x2}, {x3,x6} and {x4,x5}
        brackets = [Fraction(-scale * block[i][j], p) for i, j in ((0, 1), (2, 5), (3, 4))]
        assert brackets == [Fraction(10, 29), Fraction(9, 29), Fraction(-3, 58)]


class TestPfaffianSweep:
    """``poly._pfaffian_sweep``, 2x2 skew pivots, against ``inplace_bareiss``,
    Gauss-Jordan with row swaps: the same ``-M^-1``, ``-L*T/p`` against
    ``-L*X/prev`` entry for entry, the same ``L``, ``p^2 = sign*prev`` and a
    skew ``T``, or ``None`` on both sides for a singular matrix."""

    def check(self, values):
        upper, m = _upper_of(values), len(values)
        solved, oracle = poly_module._pfaffian_sweep(upper, m), inplace_bareiss(upper, m)
        assert (solved is None) == (oracle is None)
        if solved is not None:
            (scale, p, block), (oracle_scale, sign, prev, x) = solved, oracle
            assert scale == oracle_scale and p * p == sign * prev
            assert all(block[i][j] == -block[j][i] for i in range(m) for j in range(m))
            assert [[Fraction(-scale * y, p) for y in row] for row in block] == [
                [Fraction(-scale * y, prev) for y in row] for row in x]
        return solved

    @settings(max_examples=60, deadline=None)
    @given(skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_matches_bareiss(self, values):
        self.check(values)

    @settings(max_examples=40, deadline=None)
    @given(singular_constant_skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_singular_matches_bareiss(self, values):
        assert self.check(values) is None


mixed_entries = sparse_polynomials | rationals.map(lambda x: Polynomial.constant(CHART, x))


@st.composite
def mixed_skew_uppers(draw, sizes=st.sampled_from((4, 6, 8)), entries=mixed_entries):
    """``(upper, m)``: the upper triangle, zeros included, of a skew matrix
    whose entries are constants or sparse polynomials, so that a sweep meets
    both kinds of pivot."""
    m = draw(sizes)
    return {(i, j): draw(entries) for i in range(m) for j in range(i + 1, m)}, m


@st.composite
def singular_polynomial_uppers(draw):
    """``X S X^T`` for a skew ``S`` of even size ``r <= m - 2`` and an
    ``m x r`` matrix ``X`` of sparse polynomials: skew of rank at most ``r``."""
    m = draw(st.sampled_from((4, 6, 8, 10, 12)))
    r = draw(st.sampled_from(range(0, min(m - 1, 5), 2)))
    s = [[Polynomial.zero(CHART)] * r for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            s[a][b] = draw(mixed_entries)
            s[b][a] = -s[a][b]
    x = [[draw(sparse_polynomials) for _ in range(r)] for _ in range(m)]
    return {(i, j): poly_module.sum_of_products(
        [(x[i][a] * s[a][b], x[j][b], False) for a in range(r) for b in range(r)], CHART)
        for i in range(m) for j in range(i + 1, m)}, m


@st.composite
def pulled_back_uppers(draw):
    """``(upper, m)``: the terms of a pulled-back form on 4-12 dims, a matrix
    of polynomial entries with determinant 1."""
    chart = darboux_chart(draw(st.integers(2, 6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return pulled_back_form(rng, chart, draw(st.integers(2, 3)), draw(st.integers(2, 3)))[1].terms, chart.dim


def _skew_rows(upper, m, chart):
    """The ``m x m`` skew matrix with upper triangle ``upper``, absent pairs zero."""
    zero = Polynomial.zero(chart)
    return [[upper.get((i, j), zero) if i < j else -upper.get((j, i), zero) for j in range(m)] for i in range(m)]


class TestPolynomialSweepOracle:
    """``poly._polynomial_sweep``'s readers against the Pfaffian table they
    replaced (``tests.helpers.table_skew_inverse``): the same ``det``,
    ``adj`` and ``-M^-1``, entry for entry, on 4-12-dim skew matrices."""

    def check(self, upper, m):
        chart = next(iter(upper.values())).chart
        det, adj = table_skew_inverse(upper, m, chart)
        assert poly_module._skew_inverse(upper, m, chart) == (det, adj)
        assert poly_module._negated_inverse(upper, m, chart) == table_negated_inverse(det, adj)
        assert matrix_determinant(_skew_rows(upper, m, chart), chart) == det
        return det

    @settings(max_examples=60, deadline=None)
    @given(mixed_skew_uppers())
    def test_mixed(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(mixed_skew_uppers())
    def test_tableau_is_skew(self, case):
        # as TestPfaffianSweep asserts for the integers: T[i][j] == -T[j][i],
        # a zero diagonal included
        upper, m = case
        solved = poly_module._polynomial_sweep(upper, m, CHART)
        if solved is not None:
            block = solved[1]
            assert all(block[i][i].is_zero() for i in range(m))
            assert all(block[i][j] == -block[j][i] for i in range(m) for j in range(i + 1, m))

    @settings(max_examples=6, deadline=None)
    @given(mixed_skew_uppers(st.sampled_from((10, 12)), st.just(Polynomial.zero(CHART)) | mixed_entries))
    def test_sparse_wide(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(pulled_back_uppers())
    def test_pulled_back(self, case):
        assert self.check(*case) == 1

    @settings(max_examples=30, deadline=None)
    @given(singular_polynomial_uppers())
    def test_singular(self, case):
        assert self.check(*case).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(mixed_skew_uppers(st.sampled_from((4, 6, 8, 10))), st.data())
    def test_zero_row(self, case, data):
        upper, m = case
        k = data.draw(st.integers(0, m - 1))
        upper = {(i, j): Polynomial.zero(CHART) if k in (i, j) else x for (i, j), x in upper.items()}
        assert self.check(upper, m).is_zero()

    def test_polynomial_pivot_divides_exactly(self, monkeypatch):
        # no entry is constant, so the sweep pivots on the one-term q1 at
        # (0, 1), and its second step divides by p = q1
        upper = {(0, 1): Q1, (0, 2): P1 + 1, (0, 3): Q1 * P1, (1, 2): 2 * P1 + Q1, (1, 3): Q1 - 3,
                 (2, 3): P1 ** 2 + Q1}
        divisors = []
        divide = poly_module.exact_divide

        def recorded(a, b):
            divisors.append(b)
            return divide(a, b)

        monkeypatch.setattr(poly_module, "exact_divide", recorded)
        det = self.check(upper, 4)
        assert divisors and all(b == Q1 for b in divisors)
        rows = _skew_rows(upper, 4, CHART)
        assert det == laplace_determinant(rows, CHART) and not det.is_zero()
        assert matrix_adjugate(rows, CHART) == laplace_adjugate(rows, CHART)


class TestSkewRoutes:
    """The choice of loop: a matrix of constants never takes the polynomial
    sweep, any other always does; odd and non-skew matrices are rejected."""

    def count_route(self, rows, monkeypatch, check=TestMatrixOracle().check):
        calls = []
        sweep = poly_module._polynomial_sweep

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(poly_module, "_polynomial_sweep", counted)
        check(rows)
        constant = all(entry.is_constant() for row in rows for entry in row)
        assert bool(calls) == (not constant)

    @settings(max_examples=60, deadline=None)
    @given(skew_polynomial_matrices())
    def test_polynomial(self, rows):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count_route(rows, monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(singular_constant_skew_matrices())
    def test_singular_constant(self, values):
        rows = _constant_matrix(values)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count_route(rows, monkeypatch)
        assert matrix_determinant(rows, CHART).is_zero()
        assert all(entry.is_zero() for row in matrix_adjugate(rows, CHART) for entry in row)

    @settings(max_examples=40, deadline=None)
    @given(skew_polynomial_matrices(), st.data())
    def test_zero_row(self, rows, data):
        k = data.draw(st.integers(0, len(rows) - 1))
        for i in range(len(rows)):
            rows[k][i] = rows[i][k] = Polynomial.zero(CHART)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count_route(rows, monkeypatch)

    def test_large_constant_form(self, monkeypatch):
        # the 30-dim standard form plus 15 constant couplings: far past the
        # sizes the Laplace oracle reaches, so only adj(M) * M == det(M) * I
        m = 30
        values = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m // 2):
            values[i][m // 2 + i] = Fraction(-1)
            values[i][(i + 1) % (m // 2)] += Fraction(i % 3 + 1, 2)
        values = [[values[i][j] - values[j][i] for j in range(m)] for i in range(m)]
        rows = _constant_matrix(values)

        def check(rows):
            det = matrix_determinant(rows, CHART).constant_value()
            adj = [[entry.constant_value() for entry in row] for row in matrix_adjugate(rows, CHART)]
            assert det
            for i in range(m):
                for j in range(m):
                    assert sum(adj[i][k] * values[k][j] for k in range(m)) == (det if i == j else 0)

        self.count_route(rows, monkeypatch, check)

    @settings(max_examples=40, deadline=None)
    @given(skew_polynomial_matrices(st.sampled_from((1, 3, 5, 7))))
    def test_odd_size(self, rows):
        for function in (matrix_determinant, matrix_adjugate):
            with pytest.raises(ValueError, match="even size"):
                function(rows, CHART)

    @settings(max_examples=60, deadline=None)
    @given(dense_matrices().map(_constant_matrix) | polynomial_matrices())
    def test_non_skew(self, rows):
        m = len(rows)
        assume(not all(rows[j][i] == -rows[i][j] for i in range(m) for j in range(m)))
        for function in (matrix_determinant, matrix_adjugate):
            with pytest.raises(ValueError, match="skew-symmetric"):
                function(rows, CHART)

    @settings(max_examples=60, deadline=None)
    @given(skew_polynomial_matrices(), st.data(), st.booleans())
    def test_near_miss(self, rows, data, diagonal):
        # a nonzero diagonal entry, or one entry off the skew pattern
        m = len(rows)
        i = data.draw(st.integers(0, m - 1))
        j = i if diagonal else data.draw(st.integers(0, m - 1).filter(lambda j: j != i))
        rows[i][j] = rows[i][j] + data.draw(polynomials.filter(lambda p: not p.is_zero()))
        for function in (matrix_determinant, matrix_adjugate):
            with pytest.raises(ValueError, match="skew-symmetric"):
                function(rows, CHART)

    def test_pfaffian_squares_to_the_determinant(self):
        # a 4x4 skew matrix with Pf = a*f - b*e + c*d
        a, b, c, d, e, f = Q1, P1 + 1, Q1 * P1, 2 * P1, Q1 - 3, Polynomial.constant(CHART, 5)
        zero = Polynomial.zero(CHART)
        rows = [[zero, a, b, c], [-a, zero, d, e], [-b, -d, zero, f], [-c, -e, -f, zero]]
        pf = a * f - b * e + c * d
        assert matrix_determinant(rows, CHART) == pf * pf
        adj = matrix_adjugate(rows, CHART)
        assert adj[0][1] == -pf * f and adj[1][0] == pf * f
        assert adj[0][2] == pf * e and adj[2][0] == -pf * e


# Charts of 1-8 coordinates; monomials of total degree at most 6; integer
# and fractional coefficients.


@st.composite
def oracle_pairs(draw, count):
    """A chart and ``count`` term tables on it, each as a ``Polynomial`` and a
    ``LegacyPolynomial``."""
    dim = draw(st.integers(1, 8))
    chart = Chart([f"x{i}" for i in range(dim)])
    exponent = st.lists(st.integers(0, dim - 1), max_size=6).map(
        lambda picks: tuple(picks.count(i) for i in range(dim)))
    coefficient = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    tables = [draw(st.dictionaries(exponent, coefficient, max_size=6)) for _ in range(count)]
    return chart, [(Polynomial(chart, t), LegacyPolynomial(chart, t)) for t in tables]


scalars = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def same(new, old):
    assert new.terms == old.terms
    assert new == Polynomial(new.chart, old.terms)
    assert str(new) == str(old)
    assert all(type(c) is int or c.denominator != 1 for c in new._terms.values())
    assert new.is_zero() == old.is_zero() and new.is_constant() == old.is_constant()
    if old.is_constant():
        value = new.constant_value()
        assert value == old.constant_value() and type(value) is Fraction
    else:
        with pytest.raises(ValueError):
            new.constant_value()


class TestLegacyKernelOracle:
    """The packed-key kernel against the tuple-key kernel it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_pairs(2))
    def test_ring_operations(self, drawn):
        _, [(a, la), (b, lb)] = drawn
        same(a, la)
        same(a + b, la + lb)
        same(a - b, la - lb)
        same(-a, -la)
        same(a * b, la * lb)
        assert (a == b) == (la == lb)

    @settings(max_examples=150, deadline=None)
    @given(oracle_pairs(2), scalars)
    def test_scalars(self, drawn, s):
        chart, [(a, la), (b, lb)] = drawn
        same(a * s, la * s)
        same(s * a, s * la)
        same(a + s, la + s)
        same(s - a, s - la)
        same(a - s, la - s)
        constant = Polynomial.constant(chart, s)
        same(a * constant, la * LegacyPolynomial.constant(chart, s))
        same(constant * b, LegacyPolynomial.constant(chart, s) * lb)
        assert (a == s) == (la == s)

    @settings(max_examples=100, deadline=None)
    @given(oracle_pairs(1), st.integers(0, 3))
    def test_power(self, drawn, k):
        _, [(a, la)] = drawn
        same(a ** k, la ** k)

    @settings(max_examples=100, deadline=None)
    @given(oracle_pairs(1), st.integers(0, 50))
    def test_power_of_one_term(self, drawn, k):
        # a base of at most one term is raised in one step
        _, [(a, la)] = drawn
        if a.term_count() > 1:
            (key, c), = list(a.items())[:1]
            a, la = Polynomial(a.chart, {key: c}), LegacyPolynomial(a.chart, {key: c})
        same(a ** k, la ** k)

    @settings(max_examples=150, deadline=None)
    @given(oracle_pairs(1))
    def test_diff(self, drawn):
        chart, [(a, la)] = drawn
        for i in range(chart.dim):
            same(a.diff(i), la.diff(i))

    @settings(max_examples=150, deadline=None)
    @given(oracle_pairs(1))
    def test_partials_in_one_pass(self, drawn):
        # every partial of the one-pass kernel against the per-coordinate
        # loop, zero partials included: those are absent, and the rest come
        # in increasing index with the polynomial's degree bound
        chart, [(a, la)] = drawn
        partials = poly_module._partials(a)
        assert list(partials) == [i for i in range(chart.dim) if not la.diff(i).is_zero()]
        for i in range(chart.dim):
            partial = partials.get(i, Polynomial.zero(chart))
            same(partial, la.diff(i))
            assert a.diff(i)._degree == a._degree
            if i in partials:
                assert partial._degree == a._degree

    @settings(max_examples=150, deadline=None)
    @given(oracle_pairs(2))
    def test_exact_divide(self, drawn):
        _, [(a, la), (b, lb)] = drawn
        if b.is_zero():
            return
        same(exact_divide(a * b, b), legacy_exact_divide(la * lb, lb))
        try:
            expected = legacy_exact_divide(la, lb)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                exact_divide(a, b)
        else:
            same(exact_divide(a, b), expected)


# The printer against the one it replaced.  Charts of 1-10 coordinates, so
# that the high half (the first dim // 2 fields) is empty, shorter than the
# low half or as long.

PRINT_NAMES = ("q1", "q2", "q3", "q4", "q5", "p1", "p2", "p3", "p4", "p5", "x", "y_2")


@st.composite
def printed_polynomials(draw):
    """A polynomial on a chart of 1-10 coordinates from ``PRINT_NAMES`` in any
    order: int, ``Fraction`` and negative coefficients, constant terms, and
    one-variable terms of degree ``DEGREE_CAP - 1``.

    Other terms join one of a few high halves (the first ``dim // 2``
    fields) to one of a few low halves, either of them often zero, so keys
    share a high half across total degrees and a degree across high halves,
    and head-only, tail-only and constant monomials are common.  Their
    coefficients are a few magnitudes, 1 and some beyond 2^64 among them,
    each with either sign."""
    dim = draw(st.integers(1, 10))
    split = dim // 2
    chart = Chart(draw(st.permutations(PRINT_NAMES))[:dim])

    def fields(first, stop):
        if first == stop:  # the empty high half of a 1-dim chart
            return st.just(())
        return st.lists(st.integers(first, stop - 1), max_size=4).map(
            lambda picks: tuple(picks.count(i) for i in range(first, stop)))

    heads = draw(st.lists(fields(0, split), min_size=1, max_size=3))
    tails = draw(st.lists(fields(split, dim), min_size=1, max_size=3))
    magnitudes = [1] + draw(st.lists(st.integers(2, 6) | st.integers(2**64, 2**70)
                                     | st.builds(Fraction, st.integers(1, 2**66), st.integers(2, 4)), max_size=2))
    exponent = st.lists(st.integers(0, dim - 1), max_size=8).map(
        lambda picks: tuple(picks.count(i) for i in range(dim)))
    exponent |= st.integers(0, dim - 1).map(
        lambda i: tuple(poly_module.DEGREE_CAP - 1 if j == i else 0 for j in range(dim)))
    exponent |= st.builds(lambda head, tail: head + tail, st.sampled_from(heads), st.sampled_from(tails))
    coefficient = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coefficient |= st.builds(lambda m, sign: sign * m, st.sampled_from(magnitudes), st.sampled_from((1, -1)))
    return Polynomial(chart, draw(st.dictionaries(exponent, coefficient, max_size=16)))


class TestPrinterOracle:
    """``Polynomial.__str__`` against ``legacy_polynomial_str``, which loops
    over every coordinate field of every key."""

    @settings(max_examples=300, deadline=None)
    @given(printed_polynomials())
    def test_matches_field_loop(self, p):
        assert str(p) == legacy_polynomial_str(p)

    @pytest.mark.parametrize("text, printed", [
        # one magnitude with both signs, and ints and fractions beyond 2^64
        ("3*q1*p1 - 3*q2*p1 + 3*p2 - 3 - 36893488147419103233/2*q1^2 + 18446744073709551617*p1^2",
         "-36893488147419103233/2*q1^2 + 3*q1*p1 - 3*q2*p1 + 18446744073709551617*p1^2 + 3*p2 - 3"),
        # coefficients +-1 on head-only and tail-only monomials and the constant
        ("-q1^2 + q2 - p1*p2 + p2^3 + 1", "p2^3 - q1^2 - p1*p2 + q2 + 1"),
        ("q1^2 - q2 + p1*p2 - p2^3 - 1", "-p2^3 + q1^2 + p1*p2 - q2 - 1"),
        # one high half over total degrees 3, 2 and 1: q1*p1 and q1 are
        # adjacent keys of one high half in two runs, and q1 has no low half
        ("q1*p2^2 + q1*p1 + q1 + 2*q1*q2 - q2", "q1*p2^2 + 2*q1*q2 + q1*p1 + q1 - q2"),
        # one total degree over the high halves q1, q2 and none
        ("q1*p1 + q1*p2 - q2*p1 + p1^2 - p1*p2", "q1*p1 + q1*p2 - q2*p1 + p1^2 - p1*p2"),
    ])
    def test_each_kind_of_run_and_coefficient(self, text, printed):
        p = parse_expr(text, Chart(("q1", "q2", "p1", "p2")))
        assert str(p) == legacy_polynomial_str(p) == printed

    @pytest.mark.parametrize("p", [10**700 * Q1 - 1, Q1 - Fraction(1, 10**700)],
                             ids=["monomial coefficient", "constant term"])
    def test_coefficient_past_the_digit_limit_is_invalid_argument(self, p):
        """701 digits, past a limit lowered to 640 for the test (and restored,
        as ``tests/test_manifest.py`` does): a typed error naming the limit,
        and the same value prints once the limit is lifted."""
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(InvalidArgument) as err:
                str(p)
            sys.set_int_max_str_digits(0)
            printed = str(p)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == ("coefficient has more than 640 digits, the interpreter's limit for printing "
                                  "an integer (sys.set_int_max_str_digits)")
        assert printed.count("0") == 700

    @settings(max_examples=150, deadline=None)
    @given(printed_polynomials())
    def test_parse_round_trip(self, p):
        # every printed monomial parses back, degree DEGREE_CAP - 1 included
        assert parse_expr(str(p), p.chart) == p

    def test_dense_product(self):
        # a corpus power-bracket result: 5,775 terms over 225 high and 135 low halves
        chart = Chart(("q1", "q2", "q3", "q4", "q5", "p1", "p2", "p3", "p4", "p5"))
        p = parse_expr("45*(q1+q3+p3+1)^8*(p1+q4+p4+1)^4", chart)
        assert p.term_count() == 5775
        text = str(p)
        assert text == legacy_polynomial_str(p) and len(text) == 141981

    def test_each_call_prints_its_own_chart(self):
        # the same keys on two charts of one dimension: no half text outlives its call
        first, second = Chart(("q1", "q2", "p1", "p2")), Chart(("x", "y", "z", "w"))
        a = parse_expr("(q1 + q2 + p1 - 2*p2 + 1)^4", first)
        b = parse_expr("(x + y + z - 2*w + 1)^4", second)
        assert a._terms == b._terms
        for p in (a, b, a):
            assert str(p) == legacy_polynomial_str(p)
        assert not re.search(r"[qp]", str(b)) and not re.search(r"[xyzw]", str(a))


# The fused sum against the tuple-key kernel: one LegacyPolynomial per
# product and per partial sum.  ``Polynomial``'s own ``*`` is a one-product
# fused sum, so it cannot be the oracle.


def summed_by_legacy(products, chart):
    """``(sum(+-a*b), bound)``: the sum over ``LegacyPolynomial`` and the degree
    bound the fused sum must carry.  The bound is the largest over the nonzero
    products, 0 for none; a product whose smaller factor (the first on a tie)
    is one term has the larger factor's bound plus that term's degree, any
    other ``a``'s bound plus ``b``'s."""
    total, degree = LegacyPolynomial.zero(chart), 0
    for a, b, negate in products:
        product = LegacyPolynomial(chart, a.terms) * LegacyPolynomial(chart, b.terms)
        total = total - product if negate else total + product
        small, large = (a, b) if a.term_count() <= b.term_count() else (b, a)
        if small.term_count() == 1:
            (exponent, _), = small.items()
            degree = max(degree, large._degree + sum(exponent))
        elif small.term_count():
            degree = max(degree, a._degree + b._degree)
    return total, degree


@st.composite
def product_lists(draw):
    """A chart of 1-8 coordinates and a list of ``(a, b, negate)`` on it.

    Factors have at most 5 terms, so zero factors, constants and monomials
    are common.  Some factors carry a degree bound above their degree (a
    term of degree 7 added and taken away again).  A quarter of the lists
    are one negated product with a one-term factor on either side.  Some
    lists get one product again with swapped factors and the other sign,
    and some get every product so, which cancels to zero.
    """
    dim = draw(st.integers(1, 8))
    chart = Chart([f"x{i}" for i in range(dim)])
    exponent = st.lists(st.integers(0, dim - 1), max_size=6).map(
        lambda picks: tuple(picks.count(i) for i in range(dim)))
    coefficient = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    high = Polynomial(chart, {(7,) + (0,) * (dim - 1): 1})
    factor = st.builds(lambda t, loose: Polynomial(chart, t) + high - high if loose else Polynomial(chart, t),
                       st.dictionaries(exponent, coefficient, max_size=5), st.booleans())
    if draw(st.integers(0, 3)) == 0:
        one_term = st.dictionaries(exponent, coefficient.filter(bool), min_size=1, max_size=1)
        monomial = draw(st.builds(lambda t, loose: Polynomial(chart, t) + high - high if loose
                                  else Polynomial(chart, t), one_term, st.booleans()))
        other = draw(factor)
        return chart, [draw(st.sampled_from([(monomial, other, True), (other, monomial, True)]))]
    products = draw(st.lists(st.tuples(factor, factor, st.booleans()), max_size=6))
    if products and draw(st.booleans()):
        a, b, negate = draw(st.sampled_from(products))
        products.append((b, a, not negate))
    if draw(st.booleans()):
        products += [(b, a, not negate) for a, b, negate in products]
    return chart, draw(st.permutations(products))


def same_sum(fused, expected):
    oracle, degree = expected
    same(fused, oracle)
    assert fused.chart == oracle.chart
    assert fused._degree == degree
    assert all(fused._terms.values())


class TestSumOfProducts:
    """``poly.sum_of_products`` against ``sum(+-a*b)`` over ``LegacyPolynomial``."""

    @settings(max_examples=200, deadline=None)
    @given(product_lists())
    def test_matches_polynomial_sums(self, drawn):
        chart, products = drawn
        same_sum(poly_module.sum_of_products(products, chart), summed_by_legacy(products, chart))

    @settings(max_examples=100, deadline=None)
    @given(product_lists(), st.data())
    def test_degree_overflow(self, drawn, data):
        # lift some factors by x0^(2^31 - s), so that some products reach 2^32
        chart, products = drawn
        lifts = [Polynomial(chart, {(2 ** 31 - s,) + (0,) * (chart.dim - 1): 1})
                 for s in data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=2))]
        lifted = [(a * lifts[0] if data.draw(st.booleans()) else a,
                   b * lifts[1] if data.draw(st.booleans()) else b, negate)
                  for a, b, negate in products]
        expected = summed_by_legacy(lifted, chart)
        if expected[1] >= poly_module.DEGREE_CAP:
            with pytest.raises(DegreeOverflow):
                poly_module.sum_of_products(lifted, chart)
        else:
            same_sum(poly_module.sum_of_products(lifted, chart), expected)

    def test_small_cases(self):
        sum_of_products = poly_module.sum_of_products
        zero, one = Polynomial.zero(CHART), Polynomial.constant(CHART, 1)
        p = Q1 * P1 + Fraction(1, 2)
        assert sum_of_products([], CHART).is_zero()
        assert sum_of_products([(zero, p, False), (p, zero, True)], CHART).is_zero()
        # a lone product with a one-term factor takes one pass: a factor of one returns the other
        assert sum_of_products([(one, p, False)], CHART) is p
        assert sum_of_products([(p, one, True)], CHART) == -p
        assert sum_of_products([(p, p, False), (p, p, True)], CHART).is_zero()
        value = sum_of_products([(p, 2 * one, False), (Q1, P1, False), (one, one, True)], CHART)
        assert value == 3 * Q1 * P1 and value._terms == {poly_module._pack((1, 1)): 3}
        with pytest.raises(ChartMismatch):
            sum_of_products([(p, Polynomial.variable(Chart(("x",)), "x"), False)], CHART)
        with pytest.raises(ChartMismatch):
            sum_of_products([(p, p, False), (p, p, False)], Chart(("x", "y")))


@st.composite
def empty_table_products(draw):
    """``(chart, a, b, negate, kind)``: two factors of 2-6 terms on a 1-6-dim
    chart.  The low 4 bits of each coordinate's exponent field are split
    between the factors, and each factor's exponents use its own bits alone,
    so a coordinate is often in both factors in disjoint bits (``q1 + 1``
    and ``q1^2 + 1``), or in one factor only.  Kind ``"disjoint"`` stops
    there; kind ``"shared"`` adds a term ``x0`` to both, so their masks share
    exactly one bit.  Often both factors hold a constant term.  Coefficients
    are ints and fractions such as 2/3 and 3/2, so many products are
    integral ``Fraction``s."""
    dim = draw(st.integers(1, 6))
    chart = Chart([f"x{i}" for i in range(dim)])
    owners = draw(st.lists(st.lists(st.booleans(), min_size=4, max_size=4), min_size=dim, max_size=dim))
    owners[0][:2] = [True, False]  # each factor owns a bit: x0^1 is a's, x0^2 is b's

    def exponents(side):
        picks = st.lists(st.lists(st.booleans(), min_size=4, max_size=4), min_size=dim, max_size=dim)
        return picks.map(lambda rows: tuple(sum(1 << bit for bit in range(4) if row[bit] and owners[i][bit] == side)
                                            for i, row in enumerate(rows)))

    coefficient = st.sampled_from((1, -1, 2, -3, 6, Fraction(2, 3), Fraction(-3, 2), Fraction(3, 2), Fraction(1, 6)))
    a_terms = draw(st.dictionaries(exponents(True), coefficient, min_size=2, max_size=5))
    b_terms = draw(st.dictionaries(exponents(False), coefficient, min_size=2, max_size=5))
    if draw(st.booleans()):
        zero = (0,) * dim
        a_terms[zero], b_terms[zero] = draw(coefficient), draw(coefficient)
    kind = draw(st.sampled_from(("disjoint", "shared")))
    if kind == "shared":
        x0 = (1,) + (0,) * (dim - 1)
        a_terms[x0], b_terms[x0] = draw(coefficient), draw(coefficient)
    return chart, Polynomial(chart, a_terms), Polynomial(chart, b_terms), draw(st.booleans()), kind


@pytest.fixture
def comprehensions(monkeypatch):
    """The arguments of every ``poly._disjoint_product`` call."""
    calls = []
    disjoint_product = poly_module._disjoint_product
    monkeypatch.setattr(poly_module, "_disjoint_product", lambda *args: calls.append(args) or disjoint_product(*args))
    return calls


class TestDisjointProduct:
    """A product into an empty table whose factors share no exponent bit is
    one comprehension, ``poly._disjoint_product``; the general loop
    ``poly._add_product`` into an empty table, finished, is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(empty_table_products())
    def test_matches_the_general_loop(self, drawn):
        chart, a, b, negate, kind = drawn
        small, large = (a, b) if a.term_count() <= b.term_count() else (b, a)
        general = {}
        poly_module._add_product(general, large._terms, small._terms, negate)
        oracle = poly_module._finished(general)
        if kind == "disjoint":  # one key per term pair, none cancelled
            built = poly_module._disjoint_product(large._terms, small._terms, negate)
            assert len(built) == len(general) == a.term_count() * b.term_count()
            assert built == general
        with pytest.MonkeyPatch.context() as patch:
            comprehensions = []
            disjoint_product = poly_module._disjoint_product
            patch.setattr(poly_module, "_disjoint_product",
                          lambda *args: comprehensions.append(args) or disjoint_product(*args))
            values = poly_module.sum_of_products([(a, b, negate)], chart), -(a * b) if negate else a * b
        assert len(comprehensions) == (2 if kind == "disjoint" else 0)
        for value in values:
            assert value._terms == oracle
            same_sum(value, summed_by_legacy([(a, b, negate)], chart))

    def test_integral_fractions_come_back_as_ints(self):
        chart = Chart(("q1", "p2"))
        q1, p2 = coordinates(chart)
        a, b = Fraction(2, 3) * q1 + Fraction(1, 3), Fraction(3, 2) * p2 + 3
        value = a * b
        assert value == q1 * p2 + 2 * q1 + Fraction(1, 2) * p2 + 1
        assert [type(x) for x in value._terms.values()].count(int) == 3
        assert str(value) == "q1*p2 + 2*q1 + 1/2*p2 + 1"

    def test_bits_not_coordinates(self, comprehensions):
        q1 = Polynomial.variable(CHART, "q1")
        assert (q1 + 1) * (q1 ** 2 + 1) == q1 ** 3 + q1 ** 2 + q1 + 1
        assert len(comprehensions) == 1
        assert (q1 ** 3 + 1) * (q1 + 1) == q1 ** 4 + q1 ** 3 + q1 + 1
        assert len(comprehensions) == 1

    def test_degree_bound_is_checked_before_the_table_is_built(self, comprehensions):
        a, b = Polynomial(CHART, {(2 ** 31, 0): 1, (0, 0): 1}), Polynomial(CHART, {(0, 2 ** 31): 1, (0, 0): 2})
        with pytest.raises(DegreeOverflow, match=r"total degree would reach 2\^32"):
            a * b
        assert comprehensions == []
        half = Polynomial(CHART, {(2 ** 30, 0): 1, (0, 0): 1})
        assert half * b == Polynomial(CHART, {(2 ** 30, 2 ** 31): 1, (2 ** 30, 0): 2, (0, 2 ** 31): 1, (0, 0): 2})
        assert len(comprehensions) == 1


def legacy(p):
    return LegacyPolynomial(p.chart, p.terms)


@pytest.fixture
def negations(monkeypatch):
    """The polynomials ``Polynomial.__neg__`` is called on."""
    seen = []
    negate = Polynomial.__neg__

    def counting(self):
        seen.append(self)
        return negate(self)

    monkeypatch.setattr(Polynomial, "__neg__", counting)
    return seen


class TestOneProductRoute:
    """Every product of two polynomials enters ``poly.sum_of_products``, and
    every product by a scalar ``Polynomial._shifted``; a generator walk's
    products of partial sums enter ``poly._walk_level``."""

    @staticmethod
    def fused_calls(monkeypatch):
        """The number of products in each ``poly.sum_of_products`` call."""
        calls = []
        fused = poly_module.sum_of_products

        def counting(products, chart):
            calls.append(len(products))
            return fused(products, chart)

        monkeypatch.setattr(poly_module, "sum_of_products", counting)
        return calls

    def test_mul_is_one_fused_sum(self, monkeypatch):
        p = Q1 * P1 - Fraction(1, 2) * P1 ** 2 + 3
        calls = self.fused_calls(monkeypatch)
        for q in (Q1 + 2 * P1, -3 * Q1 ** 2, Polynomial.constant(CHART, 5), Polynomial.zero(CHART)):
            same(p * q, legacy(p) * legacy(q))
            same(q * p, legacy(q) * legacy(p))
            assert calls == [1, 1], q
            calls.clear()

    def test_scalar_product_takes_no_fused_sum(self, monkeypatch):
        # an int or Fraction factor is one pass of _shifted: no constant
        # polynomial is built and no fused sum runs
        p = Q1 * P1 - Fraction(1, 2) * P1 ** 2 + 3
        calls = self.fused_calls(monkeypatch)

        def refuse(*args):
            raise AssertionError("a constant polynomial was built")

        monkeypatch.setattr(Polynomial, "constant", classmethod(refuse))
        for c in (Fraction(1, 3), 5, -1, 1, Fraction(-2, 3), Fraction(4, 2), 0):
            same(p * c, legacy(p) * c)
            same(c * p, c * legacy(p))
            if c:
                same(p / c, legacy(p) * (1 / Fraction(c)))
        assert calls == []
        assert (p * 0).is_zero() and (p * Fraction(0)).is_zero() and (0 * p).is_zero()
        with pytest.raises(DivisionByZero):
            p / 0

    def test_lone_negated_monomial_product_negates_nothing(self, negations):
        p = Q1 * P1 - Fraction(1, 2) * P1 ** 2 + 3
        m = Fraction(-3, 4) * Q1 ** 2 * P1
        expected = -(legacy(p) * legacy(m))
        negations.clear()
        for products in ([(p, m, True)], [(m, p, True)]):
            same(poly_module.sum_of_products(products, CHART), expected)
        assert negations == []

    def test_adjugate_signs_are_folded_into_the_products(self, negations, monkeypatch):
        # past the sweep, the adjugate -p*N negates only to mirror each upper
        # entry below the diagonal
        chart = Chart(("x", "y"))
        x, y = coordinates(chart)
        upper = {(0, 1): x + 1, (0, 2): y, (0, 3): 2 * x, (1, 2): 3 * y, (1, 3): x * y, (2, 3): 1 + y}
        rows = [[upper[i, j] if i < j else -upper[j, i] if i > j else Polynomial.zero(chart)
                 for j in range(4)] for i in range(4)]
        sweep = poly_module._polynomial_sweep

        def swept(*args):
            solved = sweep(*args)
            negations.clear()
            return solved

        monkeypatch.setattr(poly_module, "_polynomial_sweep", swept)
        det, adj = poly_module._skew_inverse(upper, 4, chart)
        assert len(negations) == 6
        assert adj == laplace_adjugate(rows, chart) and det == laplace_determinant(rows, chart)

    def test_only_the_fused_sum_calls_the_product_loops(self):
        # inside poly.py, _add_product and ._shifted are named by sum_of_products,
        # by one level of merge_walk, by _added (the fused sum's and the
        # pairing's first-product rule) and, for a scalar factor, by __mul__
        # alone; _disjoint_product by _added alone
        tree = ast.parse((ROOT / "src" / "formcalc" / "poly.py").read_text())
        callers = {"_add_product": set(), "_shifted": set(), "_disjoint_product": set()}
        for top in tree.body:
            for function in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(function, ast.FunctionDef):
                    for node in ast.walk(function):
                        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(
                            node, ast.Attribute) else None
                        if name in callers and (name == "_shifted") == isinstance(node, ast.Attribute):
                            callers[name].add(function.name)
        assert callers["_add_product"] | callers["_shifted"] == {"sum_of_products", "_walk_level", "_added",
                                                                 "__mul__"}
        assert callers["_disjoint_product"] == {"_added"}
