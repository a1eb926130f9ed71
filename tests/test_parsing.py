import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from formcalc import (
    Chart,
    Form,
    Multivector,
    ParseError,
    Polynomial,
    RationalExpr,
    parse_expr,
    parse_tensor,
    parse_value,
)
from formcalc.parsing import MAX_NESTING

from tests.helpers import rand_form, rand_multivector, rand_nonzero_poly, rand_poly

CHART = Chart(("q1", "p1"))


class TestExpressions:
    def test_basic(self):
        p = parse_expr("q1^2 - 3/2*p1", CHART)
        assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)}

    def test_zero(self):
        assert parse_expr("0", CHART).is_zero()

    def test_parentheses(self):
        q1 = Polynomial.variable(CHART, "q1")
        assert parse_expr("q1*(q1+1)", CHART) == q1 ** 2 + q1

    def test_precedence(self):
        q1 = Polynomial.variable(CHART, "q1")
        assert parse_expr("-q1^2", CHART) == -(q1 ** 2)
        assert parse_expr("2*q1 + 1", CHART) == 2 * q1 + 1
        assert parse_expr("(q1^2)^3", CHART) == q1 ** 6

    def test_rational_literals(self):
        assert parse_expr("3/2", CHART) == Polynomial.constant(CHART, Fraction(3, 2))
        assert parse_expr("-1/3*q1", CHART).terms == {(1, 0): Fraction(-1, 3)}

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 + zz", CHART)
        assert "zz" in str(err.value)
        assert err.value.column == 6

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 / 2", CHART)
        assert err.value.column == 4

    def test_environment_names(self):
        env = {"f": parse_expr("q1 + 1", CHART)}
        assert parse_expr("f * f", CHART, env) == parse_expr("q1^2 + 2*q1 + 1", CHART)

    def test_deep_nesting_is_a_parse_error(self):
        text = "(" * 3000 + "q1" + ")" * 3000
        with pytest.raises(ParseError) as err:
            parse_expr(text, CHART)
        assert "nested deeper" in err.value.message
        assert err.value.column == MAX_NESTING + 1
        assert parse_expr("(" * MAX_NESTING + "q1" + ")" * MAX_NESTING, CHART) == parse_expr("q1", CHART)

    def test_long_unary_minus_chain(self):
        q1 = Polynomial.variable(CHART, "q1")
        assert parse_expr("-" * 3000 + "q1", CHART) == q1
        assert parse_expr("-" * 3001 + "q1^2", CHART) == -(q1 ** 2)

    def test_garbage(self):
        for bad in ("", "q1 +", "q1^p1", "(q1", "q1)"):
            with pytest.raises(ParseError):
                parse_expr(bad, CHART)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            max_size=5,
        )
    )
    def test_print_parse_round_trip(self, terms):
        p = Polynomial(CHART, terms)
        assert parse_expr(str(p), CHART) == p


class TestTensors:
    def test_form(self):
        f = parse_tensor("q1^2 * d(q1)^d(p1)", CHART)
        assert isinstance(f, Form)
        assert f.grade == 2
        q1 = Polynomial.variable(CHART, "q1")
        assert f.terms == {(0, 1): q1 ** 2}

    def test_multivector_orientation(self):
        mv = parse_tensor("e(p1)^e(q1)", CHART)
        assert isinstance(mv, Multivector)
        assert mv.terms == {(0, 1): Polynomial.constant(CHART, -1)}

    def test_grade_zero_is_polynomial(self):
        assert isinstance(parse_tensor("q1 + 1", CHART), Polynomial)

    def test_sign_folding(self):
        f = parse_tensor("- d(q1)^d(p1) + 2 * d(q1)^d(p1)", CHART)
        assert f.terms == {(0, 1): Polynomial.constant(CHART, 1)}

    def test_duplicate_atoms_vanish(self):
        assert parse_tensor("d(q1)^d(q1)", CHART).is_zero()

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_tensor("d(q1)^e(p1)", CHART)
        with pytest.raises(ParseError):
            parse_tensor("d(q1) + e(p1)", CHART)

    def test_mixed_grades_rejected(self):
        with pytest.raises(ParseError):
            parse_tensor("d(q1)^d(p1) + d(q1)", CHART)

    def test_unknown_coordinate(self):
        with pytest.raises(ParseError):
            parse_tensor("d(zz)", CHART)

    def test_coefficient_needs_star(self):
        with pytest.raises(ParseError):
            parse_tensor("q1 d(q1)", CHART)

    def test_round_trip_random(self):
        # zero tensors print as "0", which re-parses as the zero polynomial
        rng = random.Random(31337)
        chart = Chart(("q1", "q2", "p1", "p2"))
        for grade in (1, 2, 3):
            for _ in range(10):
                for tensor in (rand_form(rng, chart, grade), rand_multivector(rng, chart, grade)):
                    back = parse_tensor(str(tensor), chart)
                    if tensor.is_zero():
                        assert back.is_zero()
                    else:
                        assert back == tensor


class TestValues:
    def test_literals(self):
        assert parse_value("true", CHART) is True
        assert parse_value("false", CHART) is False
        assert parse_value("pass", CHART) == "pass"
        assert parse_value("fail", CHART) == "fail"

    def test_rational_expression(self):
        value = parse_value("(q1 + 1) / (p1)", CHART)
        assert isinstance(value, RationalExpr)
        assert value == RationalExpr(parse_expr("q1+1", CHART), parse_expr("p1", CHART))

    def test_rational_round_trip(self):
        rng = random.Random(55)
        for _ in range(15):
            r = RationalExpr(rand_poly(rng, CHART), rand_nonzero_poly(rng, CHART))
            assert parse_value(str(r), CHART) == r

    def test_parenthesized_product_is_not_rational(self):
        assert parse_value("(q1+1)*(q1-1)", CHART) == parse_expr("q1^2-1", CHART)
