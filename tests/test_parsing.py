import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    AlgebraError,
    Chart,
    ChartMismatch,
    Form,
    Multivector,
    ParseError,
    Polynomial,
    RationalExpr,
    parse_expr,
    parse_tensor,
    parse_value,
)
from formcalc.exterior import _Graded
from formcalc.parsing import MAX_EXPONENT, MAX_NESTING
from formcalc.poly import DEGREE_CAP

from tests.helpers import (
    legacy_parse_tensor,
    legacy_parse_value,
    rand_form,
    rand_multivector,
    rand_nonzero_poly,
    rand_poly,
)
from tests.parse_golden import outcome_lines

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

    def test_exponent_cap(self):
        # the cap holds where the power costs work: a multi-term base, or a
        # coefficient other than +-1.  A +-1 monomial is bounded by the degree cap
        q1 = Polynomial.variable(CHART, "q1")
        assert parse_expr(f"q1^{MAX_EXPONENT}", CHART) == q1 ** MAX_EXPONENT
        assert parse_expr(f"q1^{MAX_EXPONENT + 1}", CHART) == q1 ** (MAX_EXPONENT + 1)
        assert parse_expr(f"(-q1)^{MAX_EXPONENT + 1}", CHART) == -q1 ** (MAX_EXPONENT + 1)
        assert parse_expr("q1^1000*q1", CHART) == parse_expr(str(q1 ** 1001), CHART)
        for bad, column, message in ((f"(2*q1)^{MAX_EXPONENT + 1}", 8, "exponent larger than"),
                                     (f"2^{MAX_EXPONENT + 1}", 3, "exponent larger than"),
                                     ("2^5000", 3, "exponent larger than"),
                                     ("(q1 + p1)^99999999999", 11, "exponent larger than"),
                                     ("q1^99999999999", 4, "total degree"),
                                     ("q1^" + "9" * 5000, 4, "integer literal too long")):
            with pytest.raises(ParseError) as err:
                parse_expr(bad, CHART)
            assert err.value.column == column
            assert message in err.value.message

    def test_integer_literal_beyond_int_conversion(self):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 + " + "1" * 5000, CHART)
        assert err.value.column == 6

    def test_tensor_is_not_a_polynomial(self):
        for text in ("d(q1)", "q1 * e(p1)"):
            with pytest.raises(ParseError):
                parse_expr(text, CHART)

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


@pytest.mark.parametrize("parse, text, message, column", [
    (parse_value, "(q1) / q2", "expected '(' after '/'", 8),
    (parse_value, "(q1) / (0)", "zero denominator", 8),
    (parse_expr, "1/q1", "expected an integer denominator", 3),
    (parse_expr, "1/0", "zero denominator in rational literal", 3),
    (parse_tensor, "d(1)", "expected a coordinate name", 3),
    (parse_tensor, "d(q1 q2)", "expected ')'", 6),
    (parse_expr, "q1 $ p1", "unexpected character '$'", 4),
    (parse_expr, "q1$", "unexpected character '$'", 3),
    (parse_expr, "q1 +\n  p1 $", "unexpected character '$'", 6),
])
def test_error_message_and_column(parse, text, message, column):
    with pytest.raises(ParseError) as err:
        parse(text, CHART)
    # every error here sits on the last line of its text
    assert (err.value.message, err.value.line, err.value.column) == (message, text.count("\n") + 1, column)



# Inputs at the edges of the monomial route: each term's leading factors
# are read as one coefficient and one exponent record until a factor that
# is not INT, INT/INT, a coordinate or coordinate^INT.  Each row is the
# message and column, or the kind, grade and printed value, that the
# parser gave before it read terms by monomials.
MONOMIAL_ROUTE_OUTCOMES = [
    ("3*q1^4294967295*q1", ("total degree would reach 2^32", 17)),
    ("2*q1^4294967295*p1", ("total degree would reach 2^32", 17)),
    ("q1^4294967295*p1*-1", ("total degree would reach 2^32", 15)),
    ("0*q1^4294967296", ("total degree would reach 2^32", 6)),
    ("(q1)^4294967296", ("total degree would reach 2^32", 6)),
    ("0*q1^4294967295*q1", ("Polynomial", None, "0")),
    ("(0*q1^4294967295 + p1 + 1)*(p1+1)", ("Polynomial", None, "p1^2 + 2*p1 + 1")),
    ("p1*(q1^4294967295 - q1^4294967295 + 4^2)", ("total degree would reach 2^32", 40)),
    ("(q1^4294967294*(p1+1) + 1)*(p1+1)", ("total degree would reach 2^32", 33)),
    ("q1^2^3", ("unexpected token '^'", 5)),
    ("2/0*q1", ("zero denominator in rational literal", 3)),
    ("q1*2/", ("expected an integer denominator", 6)),
    ("2/3^2*q1", ("Polynomial", None, "4/9*q1")),
    ("q1^" + "9" * 5000, ("integer literal too long", 4)),
    ("3*" + "1" * 5000 + "*q1", ("integer literal too long", 3)),
    ("1/" + "7" * 5000, ("integer literal too long", 3)),
    ("2^1001*q1", ("exponent larger than 1000", 3)),
    ("q1^p1", ("exponent must be a nonnegative integer", 4)),
    ("q1 * -", ("unexpected end of input", 7)),
    ("q1*zz", ("unknown identifier 'zz'", 4)),
    ("q1 - - -p1^3*2/3", ("Polynomial", None, "-2/3*p1^3 + q1")),
    ("q1^0*3", ("Polynomial", None, "3")),
    ("q1*d(q1)^e(p1)", ("cannot mix d(...) and e(...) factors", 10)),
    ("2*d(zz)", ("unknown coordinate 'zz'", 5)),
    ("d(q1)*2", ("a coefficient must come before its d(...) or e(...) factors", 6)),
    ("d(q1)^2", ("d(...) and e(...) factors take no powers", 7)),
    ("d(q1)^d(p1)^2", ("expected a d(...) or e(...) factor", 13)),
    ("d(q1)^d(p1)^d(q1)", ("more factors than chart coordinates", 13)),
    ("d(q1)^d(q1)", ("Form", 2, "0")),
    ("e(p1)^e(q1) - 2*q1^2*e(q1)^e(p1)", ("Multivector", 2, "(-2*q1^2 - 1) * e(q1)^e(p1)")),
]


@pytest.mark.parametrize("text, expected", MONOMIAL_ROUTE_OUTCOMES,
                         ids=[text if len(text) < 40 else f"{text[:8]}...{len(text)}" for text, _ in
                              MONOMIAL_ROUTE_OUTCOMES])
def test_monomial_route_outcome(text, expected):
    if len(expected) == 3:
        value = parse_tensor(text, CHART)
        assert (type(value).__name__, getattr(value, "grade", None), str(value)) == expected
        return
    with pytest.raises(ParseError) as err:
        parse_tensor(text, CHART)
    assert (err.value.message, err.value.line, err.value.column) == (expected[0], 1, expected[1])


def test_coordinates_named_d_and_e():
    # ``d(`` and ``e(`` open a factor even where d and e are coordinates
    chart = Chart(("d", "e", "x"))
    assert str(parse_tensor("d*d(x)^d(d) - e^2*e*d(e)^d(x)", chart)) == "-d * d(d)^d(x) - e^3 * d(e)^d(x)"
    with pytest.raises(ParseError) as err:
        parse_tensor("d^2*e(d) + e(e)*d", chart)
    assert (err.value.message, err.value.column) == ("a coefficient must come before its d(...) or e(...) factors", 16)


def test_outcomes_match_the_golden():
    """The seeded texts of ``tests/parse_golden.py`` and the outcome of each,
    byte for byte as ``tests/golden/parse_outcomes.txt`` holds them: every
    value's kind, grade, degree bound and printed text, and every error's
    class, message, line and column."""
    golden = (Path(__file__).parent / "golden" / "parse_outcomes.txt").read_text(encoding="utf-8")
    lines = outcome_lines()
    differing = [(ours, held) for ours, held in zip(lines, golden.splitlines()) if ours != held]
    assert not differing, differing[:3]
    assert len(lines) == len(golden.splitlines())
    assert "".join(line + "\n" for line in lines) == golden


@st.composite
def wide_charts(draw):
    dim = draw(st.integers(1, 10))
    return Chart(tuple(f"x{i}" for i in range(1, dim + 1)))


@st.composite
def wide_polynomials(draw, chart):
    """Up to 5 terms with ``Fraction`` coefficients and exponents up to just
    below ``DEGREE_CAP`` in total."""
    largest = (DEGREE_CAP - 1) // chart.dim
    exponents = st.lists(st.one_of(st.integers(0, 3), st.integers(0, largest), st.just(largest)),
                         min_size=chart.dim, max_size=chart.dim).map(tuple)
    coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return Polynomial(chart, draw(st.dictionaries(exponents, coefficients, max_size=5)))


@st.composite
def index_lists(draw, chart):
    """A wedge chain's coordinate indices: unsorted, and now and then repeated."""
    grade = draw(st.integers(1, min(chart.dim, 4)))
    return draw(st.lists(st.integers(0, chart.dim - 1), min_size=grade, max_size=grade))


class TestRoundTrip:
    """Printing and parsing are inverse on 1-10-dim charts."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_polynomial(self, data):
        chart = data.draw(wide_charts())
        p = data.draw(wide_polynomials(chart))
        assert parse_expr(str(p), chart) == p

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tensor(self, data):
        chart = data.draw(wide_charts())
        cls = data.draw(st.sampled_from([Form, Multivector]))
        chains = data.draw(st.lists(index_lists(chart), min_size=1, max_size=4))
        grade = len(chains[0])
        terms = {}
        for indices in chains:
            if len(indices) == grade:
                terms[tuple(indices)] = data.draw(wide_polynomials(chart))
        tensor = cls(chart, grade, terms)
        back = parse_tensor(str(tensor), chart)
        if tensor.is_zero():
            assert str(tensor) == "0" and back.is_zero()
        else:
            assert back == tensor and back.grade == grade

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_wedge_chain(self, data):
        # one chain as written, with its coordinates in any order and repeats
        chart = data.draw(wide_charts())
        cls, atom = data.draw(st.sampled_from([(Form, "d"), (Multivector, "e")]))
        indices = data.draw(index_lists(chart))
        coefficient = data.draw(wide_polynomials(chart))
        text = f"({coefficient}) * " + "^".join(f"{atom}({chart.names[i]})" for i in indices)
        value = parse_tensor(text, chart)
        assert type(value) is cls and value.grade == len(indices)
        assert value == cls(chart, len(indices), {tuple(indices): coefficient})


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
        # a 0-form prints as its polynomial
        q1 = Polynomial.variable(CHART, "q1")
        assert str(Form.from_polynomial(q1)) == "q1"

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

    def test_coefficient_comes_first(self):
        for bad in ("d(q1) * q1", "d(q1) * d(p1)", "d(q1)^d(p1) * 2"):
            with pytest.raises(ParseError):
                parse_tensor(bad, CHART)

    def test_tensor_inside_parentheses_rejected(self):
        for bad in ("(d(q1))", "2 * (q1 * d(q1))", "(e(q1) + e(p1))^e(q1)"):
            with pytest.raises(ParseError):
                parse_tensor(bad, CHART)

    def test_tensor_power_rejected(self):
        for bad in ("d(q1)^2", "e(q1)^e(p1)^0", "d(q1)^q1"):
            with pytest.raises(ParseError):
                parse_tensor(bad, CHART)

    def test_zero_term_keeps_its_grade(self):
        # d(q1) - d(q1) is a zero 1-form, which must not absorb a 2-form term
        for bad in ("d(q1) - d(q1) + d(q1)^d(p1)", "0 * d(q1) + d(q1)^d(p1)", "0 + d(q1)"):
            with pytest.raises(ParseError):
                parse_tensor(bad, CHART)
        zero = parse_tensor("d(q1)^d(q1)", CHART)
        assert isinstance(zero, Form) and zero.grade == 2 and zero.is_zero()

    def test_chain_longer_than_the_chart(self):
        with pytest.raises(ParseError) as err:
            parse_tensor("d(q1)^d(p1)^d(q1)", CHART)
        assert err.value.column == 13

    def test_minus_after_star(self):
        assert parse_tensor("2 * -d(q1)", CHART) == parse_tensor("-2 * d(q1)", CHART)
        assert parse_tensor("q1 * - - e(p1)", CHART) == parse_tensor("q1 * e(p1)", CHART)

    @pytest.mark.parametrize("text", ["+d(q1)", "*d(p1)", "-*d(q1)", "d(q1) - + d(p1)"])
    def test_term_starting_with_plus_or_star_rejected(self, text):
        legacy_parse_tensor(text, CHART)  # the former parser accepted these
        with pytest.raises(ParseError):
            parse_tensor(text, CHART)

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


class TestOneSum:
    """An expression's terms are added into one table once: no pairwise fold."""

    def test_sums_add_no_partial_results(self, monkeypatch):
        rng = random.Random(7)
        q1, p1 = Polynomial.variable(CHART, "q1"), Polynomial.variable(CHART, "p1")
        dq1, dp1 = parse_tensor("d(q1)", CHART), parse_tensor("d(p1)", CHART)
        texts, expected = [], []
        for atoms in ([("", 1)], [(" * d(q1)", dq1), (" * d(p1)", dp1)]):  # polynomial, 1-form
            text, value = "", 0 * atoms[0][1]
            for _ in range(200):
                a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4)
                suffix, atom = rng.choice(atoms)
                negate = rng.random() < 0.5
                text += f" {'-' if negate else '+'} {c}*q1^{a}*p1^{b}{suffix}"
                term = c * q1 ** a * p1 ** b * atom
                value = value - term if negate else value + term
            texts.append(text.lstrip(" +"))
            expected.append(value)

        def forbidden(*args):
            raise AssertionError("a parsed sum was folded pairwise")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(Polynomial, name, forbidden)
        for name in ("__add__", "__sub__"):
            monkeypatch.setattr(_Graded, name, forbidden)
        values = [parse_expr(texts[0], CHART), parse_tensor(texts[1], CHART)]
        monkeypatch.undo()
        assert values == expected

    def test_many_terms_on_one_index_tuple(self):
        q1 = Polynomial.variable(CHART, "q1")
        text = " + ".join(f"{k}*q1 * e(q1)^e(p1) - {k} * e(p1)^e(q1)" for k in range(1, 51))
        assert parse_tensor(text, CHART) == Multivector(CHART, 2, {(0, 1): 1275 * q1 + 1275})

    def test_a_cancelling_sum_keeps_its_grade(self):
        zero = parse_tensor("q1 * d(q1) + 2 * d(p1) - q1 * d(q1) - 2 * d(p1)", CHART)
        assert isinstance(zero, Form) and zero.grade == 1 and zero.is_zero()

    @pytest.mark.parametrize("text", ["f", "f^2", "-f", "(f)", "f + 1", "q1 * f"])
    def test_environment_value_on_another_chart(self, text):
        with pytest.raises(ChartMismatch):
            parse_expr(text, CHART, {"f": Polynomial.variable(Chart(("x",)), "x")})


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
        for text in ("(q1) - p1", "(q1) - - p1", "(q1)^2 + 1", "(2) * -p1 - 1"):
            assert parse_value(text, CHART) == parse_expr(text, CHART)
        assert parse_value("(q1) * d(p1) - d(q1)", CHART) == parse_tensor("q1 * d(p1) - d(q1)", CHART)


# Tokens for the differential test against the former parser.  Strings are
# drawn as terms (a sign or a parenthesized lead term, coefficients, a wedge
# chain, now and then a factor after the chain or parentheses around it) and
# then get up to two tokens of noise from the whole pool.
ORACLE_CHART = Chart(("q1", "q2", "p1"))
ORACLE_ENV = {"f": parse_expr("q1 + 1", ORACLE_CHART)}
COEFFICIENTS = ["q1", "p1", "f", "0", "2", "3/2", "q1 ^ 2", "( q1 - 2 )", "( p1 )"]
LEADS = ["", "", "", "", "", "-", "- -", "+", "*", "( p1 ) -"]
JOINS = ["+", "-"] * 4 + ["+ -", "- -", "- +", "+ *"]
TAILS = [""] * 8 + ["* 2", "^ 2"]
ORACLE_POOL = COEFFICIENTS + [
    "d(q1)", "d(p1)", "e(q2)", "d(zz)", "zz", "d", "e", "+", "-", "*", "^", "/", "(", ")",
]


def _term_starts_with_plus_or_star(items):
    return items[0] in ("+", "*") or any(
        a in ("+", "-") and b in ("+", "*") for a, b in zip(items, items[1:])
    )


def _minus_after_star(items):
    return any(a == "*" and b == "-" for a, b in zip(items, items[1:]))


def _outcome(parse, text):
    try:
        return True, parse(text, ORACLE_CHART, ORACLE_ENV)
    except AlgebraError as exc:  # the former parser let GradeMismatch through
        return False, exc


@st.composite
def token_strings(draw):
    kind = draw(st.sampled_from(["d", "e", None]))
    grade = draw(st.integers(1, 2))
    items = []
    for i in range(draw(st.integers(1, 3))):
        items += draw(st.sampled_from(JOINS if i else LEADS)).split()
        for _ in range(draw(st.integers(0, 2))):
            items += [draw(st.sampled_from(COEFFICIENTS)), "*"] + draw(st.sampled_from(["", "", "-"])).split()
        if kind is None:
            items += draw(st.sampled_from(COEFFICIENTS)).split()
            continue
        length = draw(st.sampled_from([grade] * 7 + [1, 3]))
        names = draw(st.lists(st.sampled_from(ORACLE_CHART.names), min_size=length, max_size=length))
        first = {"d": "e", "e": "d"}[kind] if draw(st.integers(0, 9)) == 0 else kind
        chain = [f"{first}({names[0]})"] + [f"{kind}({name})" for name in names[1:]]
        chain = " ^ ".join(chain).split() + draw(st.sampled_from(TAILS)).split()
        items += ["(", *chain, ")"] if draw(st.integers(0, 9)) == 0 else chain
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        where = draw(st.integers(0, len(items) - 1))
        items[where:where + draw(st.integers(0, 1))] = [draw(st.sampled_from(ORACLE_POOL))]
    if kind is None and draw(st.integers(0, 2)) == 0:
        items = ["("] + items + [")", "/", "(", draw(st.sampled_from(COEFFICIENTS)), ")"]
    return items


class TestFormerParserOracle:
    """The one parser agrees with the former token-slicing tensor parser and
    ``(num) / (den)`` scan, except on two documented classes of input: a term
    that begins with ``+`` or ``*`` (now rejected, as the grammar has no unary
    ``+``) and a unary minus after ``*`` (``c * -tensor``, now accepted)."""

    @settings(max_examples=400, deadline=None)
    @given(token_strings())
    def test_values_and_acceptance_match(self, items):
        text = " ".join(items)
        for new, old in ((parse_tensor, legacy_parse_tensor), (parse_value, legacy_parse_value)):
            new_ok, new_value = _outcome(new, text)
            old_ok, old_value = _outcome(old, text)
            if not new_ok:
                assert isinstance(new_value, ParseError)
            if new_ok and old_ok:
                assert type(new_value) is type(old_value)
                assert getattr(new_value, "grade", None) == getattr(old_value, "grade", None)
                assert new_value == old_value
            elif old_ok:
                assert _term_starts_with_plus_or_star(items), text
            elif new_ok:
                assert _minus_after_star(items), text
