import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import Form, Multivector, ParseError, Polynomial, Scenario, parse_scenario_text
from formcalc.cli import run_scenario
from formcalc.manifest import COMMANDS
from formcalc.suites import SUITES

MINIMAL = """
[chart]
q1 p1

[define]
omega = d(p1)^d(q1)
one = 1

[tasks]
t1 = bracket omega one p1 q1 expect 1
"""


class TestParsing:
    def test_minimal(self):
        scenario = parse_scenario_text(MINIMAL)
        assert scenario.chart.names == ("q1", "p1")
        assert len(scenario.tasks) == 1
        task = scenario.tasks[0]
        assert task.command == "bracket"
        assert task.expect_text == "1"

    def test_comments_and_blanks(self):
        text = MINIMAL.replace("[define]", "# leading comment\n[define]")
        scenario = parse_scenario_text(text + "\n# trailing\n")
        assert len(scenario.tasks) == 1

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends_of_a_file_read(self, end):
        scenario = parse_scenario_text(MINIMAL.replace("\n", end))
        assert [(task.name, task.expect_text) for task in scenario.tasks] == [("t1", "1")]

    def test_definition_kinds(self):
        text = """
[chart]
q1 p1

[define]
f = q1^2
w = d(q1)^d(p1)
v = e(q1)
th = constraints(q1, p1 - q1)
"""
        scenario = parse_scenario_text(text)
        assert isinstance(scenario.definitions["f"], Polynomial)
        assert isinstance(scenario.definitions["w"], Form)
        assert isinstance(scenario.definitions["v"], Multivector)
        thetas = scenario.definitions["th"]
        assert isinstance(thetas, list) and len(thetas) == 2

    def test_definitions_can_reference_polynomials(self):
        text = """
[chart]
q1 p1

[define]
b = q1 + 1
w = b * d(q1)^d(p1)
"""
        scenario = parse_scenario_text(text)
        q1 = Polynomial.variable(scenario.chart, "q1")
        assert scenario.definitions["w"].coefficient((0, 1)) == q1 + 1


# a definition and the [tasks] header, before a task line under test
TASKS = "omega = d(p1)^d(q1)\n[tasks]\n"


class TestValidation:
    def error(self, text):
        with pytest.raises(ParseError) as err:
            parse_scenario_text(text)
        return str(err.value)

    def test_undeclared_function(self):
        text = MINIMAL.replace("bracket omega one p1 q1", "bracket omega one p1 missing")
        assert "missing" in self.error(text)

    def test_duplicate_chart(self):
        text = MINIMAL + "\n[chart]\nx y\n"
        assert "chart declared more than once" in self.error(text)

    def test_chart_must_come_first(self):
        assert "chart" in self.error("[define]\nf = 1\n")

    def test_unknown_command(self):
        text = MINIMAL.replace("bracket", "twiddle")
        assert "twiddle" in self.error(text)

    def test_unknown_section(self):
        assert "bogus" in self.error("[bogus]\n")

    def test_duplicate_name(self):
        text = MINIMAL.replace("one = 1", "one = 1\none = 2")
        assert "already declared" in self.error(text)

    def test_wrong_entity_kind(self):
        text = MINIMAL.replace(
            "t1 = bracket omega one p1 q1 expect 1",
            "t1 = dirac-matrix omega omega p1 q1",
        )
        assert "not a constraint list" in self.error(text)

    def test_polynomial_embeds_as_volume_slot_form(self):
        # grade-0 entities are accepted where forms are expected
        scenario = parse_scenario_text(MINIMAL)
        assert scenario.tasks[0].resolved[1].grade == 0

    def test_arity_checked_before_running(self):
        text = """
[chart]
q1 p1

[define]
omega = d(p1)^d(q1)

[tasks]
t = power-bracket omega k=1 p1
"""
        assert "takes 2 functions" in self.error(text)

    def test_k_bounds(self):
        text = """
[chart]
q1 p1

[define]
omega = d(p1)^d(q1)

[tasks]
t = power-bracket omega k=2 p1 q1 p1 q1
"""
        assert "k must lie" in self.error(text)

    def test_unknown_suite(self):
        text = """
[chart]
q1 p1

[tasks]
t = verify-suite nonsense
"""
        assert "nonsense" in self.error(text)

    def test_bad_expected_value(self):
        text = MINIMAL.replace("expect 1", "expect q1 +")
        assert "bad expected value" in self.error(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_scenario_text("[chart]\nq1 p1\n\n[define]\nf = q1 + zz\n")
        assert err.value.line == 5

    @pytest.mark.parametrize("definition, message, column", [
        ("f = q1 + q9", "unknown identifier 'q9'", 10),
        ("th = constraints(q1, p1 - q9)", "unknown identifier 'q9'", 27),
        ("th =  constraints(q1,p1,q9)", "unknown identifier 'q9'", 25),
        ("th = constraints(q1,,p1)", "unexpected end of input", 21),
        ("th = constraints(q1, )", "unexpected end of input", 22),
        ("th = constraints( )", "empty constraint list", 18),
        # the indent counts: columns are positions in the line as written
        ("    f = q1 + q9", "unknown identifier 'q9'", 14),
        ("\tf = q1 + q9", "unknown identifier 'q9'", 11),
        ("  th = constraints(q1, p1 - q9)", "unknown identifier 'q9'", 29),
        ("   th = constraints(q1,,p1)", "unexpected end of input", 24),
        ("  th = constraints( )", "empty constraint list", 20),
        ("f =", "expected 'name = expression'", None),
        # task lines: the column of the token, or into an inline expression
        (TASKS + "t = power-bracket omega k=1 p1 q1+q9", "unknown identifier 'q9'", 35),
        (TASKS + "t = power-bracket omega k=1 p1 q1 expect q1 +",
         "bad expected value: unexpected end of input", 46),
        (TASKS + "\tt = power-bracket omega k=1 p1 q1   expect  1 + q9",
         "bad expected value: unknown identifier 'q9'", 50),
        (TASKS + "  t = power-bracket omeg k=1 p1 q1", "undeclared name 'omeg'", 21),
        (TASKS + "t = power-bracket omega k=x p1 q1", "expected 'k=<integer>', got 'k=x'", 25),
        # a digit that int() does not read
        (TASKS + "t = power-bracket omega k=\u00b2 p1 q1", "expected 'k=<integer>', got 'k=\u00b2'", 25),
        (TASKS + "t =", "missing command", None),
        (TASKS + "t = powr-bracket omega", "unknown command 'powr-bracket'", 5),
        (TASKS + "t = verify-suite nonsense", "unknown suite 'nonsense'", 18),
        (TASKS + "t =  schouten omega omega", "'omega' is not a multivector", 15),
        (TASKS + "t = power-bracket omega k=1 p1 q1 expect", "'expect' needs a value", 35),
        # a repeated task name is an error of the whole line
        (TASKS + "t = power-bracket omega k=1 p1 q1\nt = power-bracket omega k=1 q1 p1",
         "task name 't' is already used", None),
    ])
    def test_error_column_points_into_the_line(self, definition, message, column):
        # the error is on the last line of ``definition``
        with pytest.raises(ParseError) as err:
            parse_scenario_text(f"[chart]\nq1 p1\n\n[define]\n{definition}\n")
        line = 5 + definition.count("\n")
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    @pytest.mark.parametrize("definition, name, column", [
        ("q1 + q2 = p1", "q1 + q2", 1),
        # would shadow the inline expression f-g in every task argument
        ("f-g = q1", "f-g", 1),
        ("  2f = q1", "2f", 3),
        ("f.g = q1", "f.g", 1),
        ("th x = constraints(q1, p1)", "th x", 1),
        # a tab would split the tab-separated columns of --machine output
        (TASKS + "t\tx = power-bracket omega k=1 p1 q1", "t\tx", 1),
        (TASKS + "  t-1 = power-bracket omega k=1 p1 q1", "t-1", 3),
        (TASKS + "t_\u00e9 = power-bracket omega k=1 p1 q1", "t_\u00e9", 1),
    ])
    def test_names_must_be_identifiers(self, definition, name, column):
        with pytest.raises(ParseError) as err:
            parse_scenario_text(f"[chart]\nq1 p1\n\n[define]\n{definition}\n")
        line = 5 + definition.count("\n")
        message = f"name {name!r} is not an identifier"
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    def test_identifier_names_accepted(self):
        text = MINIMAL.replace("one = 1", "one = 1\nF_2b = q1") + "T_1b = bracket omega one p1 F_2b\n"
        scenario = parse_scenario_text(text)
        assert "F_2b" in scenario.definitions
        assert [task.name for task in scenario.tasks] == ["t1", "T_1b"]

    def test_check_jacobi_needs_even_chart_when_parsed(self):
        text = """
[chart]
x y z

[define]
w = d(x)^d(y)

[tasks]
t = check-jacobi w x y z
"""
        assert "even-dimensional" in self.error(text)

    def test_bracket_needs_a_function(self):
        text = FUZZ_HEADER + "t = bracket omega vol\n"
        assert "bracket takes: volume alpha" in self.error(text)

    @pytest.mark.parametrize("task, message", [
        ("bracket vol omega p1", "bracket takes 2 functions, got 1"),
        ("power-bracket omega k=1 p1", "power-bracket with k=1 takes 2 functions, got 1"),
        ("power-bracket omega k=3 p1 q1", "k must lie in 1..2"),
        ("derived-vf omega k=2 p1 q1", "derived-vf with k=2 takes 3 functions, got 2"),
        ("derived-vf omega k=0 p1", "k must lie in 1..2"),
        ("nambu vol 1 p1 q1", "nambu takes 4 functions, got 2"),
        ("verify-suite magnetic n=0", "suite size must be at least 1, got 0"),
    ])
    def test_arity_error_is_the_librarys_under_the_command_name(self, task, message):
        with pytest.raises(ParseError) as err:
            parse_scenario_text(FUZZ_HEADER + f"t = {task}\n")
        assert err.value.message == message

    @pytest.mark.parametrize("task", ["power-bracket omega k=1 p1 q1", "derived-vf omega k=1 p1",
                                      "check-jacobi omega p1 q1 q2"])
    def test_odd_chart_is_a_parse_error(self, task):
        text = f"[chart]\nq1 q2 p1\n\n[define]\nomega = d(p1)^d(q1)\n\n[tasks]\nt = {task}\n"
        with pytest.raises(ParseError) as err:
            parse_scenario_text(text)
        assert err.value.message == "chart must be even-dimensional, not 3-dimensional"

    @pytest.mark.parametrize("lifted", [False, True])
    def test_k_with_more_digits_than_int_reads(self, lifted):
        """One digit more than ``int()`` converts under the interpreter's
        limit: the parser's integer rule refuses it while the limit holds,
        and the range of ``k`` once the limit is lifted."""
        limit = sys.get_int_max_str_digits()
        digits = "9" * ((limit or 4300) + 1)
        text = f"[chart]\nq1 p1\n\n[define]\n{TASKS}t = power-bracket omega k={digits} p1 q1\n"
        try:
            if lifted:
                sys.set_int_max_str_digits(0)
            held = sys.get_int_max_str_digits() > 0
            with pytest.raises(ParseError) as err:
                parse_scenario_text(text)
        finally:
            sys.set_int_max_str_digits(limit)
        # the digits start at column 27, after "t = power-bracket omega k="
        expected = ("integer literal too long", 27) if held else ("k must lie in 1..1", None)
        assert (err.value.message, err.value.line, err.value.column) == (expected[0], 7, expected[1])


# A 4-dim chart with one definition of every kind a task argument can name.
FUZZ_HEADER = """
[chart]
q1 q2 p1 p2

[define]
omega = d(p1)^d(q1) + d(p2)^d(q2)
open = q2 * d(p1)^d(q1) + d(p2)^d(q2)
vol = d(q1)^d(q2)^d(p1)^d(p2)
lam = e(p1)^e(q1) + q1 * e(p2)^e(q2)
vf = q1 * e(q1) - e(p2)
th = constraints(q2, p2)
odd = constraints(q1)
f = q1*q1 - 3/2*p1
g = q1*p2 + 1

[tasks]
"""

# tokens of each argument kind, wrong-kind names and exponent literals included
# ((2*p1)^1001 is above parsing.MAX_EXPONENT; p1^1001 parses, as the power of a
# monomial with coefficient 1 is bounded by the degree cap alone)
FUZZ_TOKENS = {
    "form": ["omega", "open", "vol", "f", "lam"],
    "mv": ["lam", "vf", "g", "omega"],
    "tensor": ["omega", "open", "lam", "vf", "f"],
    "constraints": ["th", "odd", "f"],
    "fn": ["f", "g", "q1", "q2", "p1", "p2", "0", "-1/2*q1*p2", "q1+p2", "2*q2*q2", "vf", "zz",
           "q1^2", "(q1+p2)^3", "p1^1001", "(2*p1)^1001"],
    "k": [f"k={k}" for k in range(4)],
    "n": ["n=1", "n=2"],
    "suite": sorted(SUITES),
}
ANY_TOKEN = sorted({token for pool in FUZZ_TOKENS.values() for token in pool})
FUZZ_EXPECT = ["0", "1", "-1", "q1", "true", "false", "pass", "fail", "(1) / (q2)"]


@st.composite
def task_body(draw):
    """``command args [expect value]``: argument tokens follow the command's
    kinds, with a token of any kind in about one slot in ten."""
    name = draw(st.sampled_from(list(COMMANDS)))
    kinds = list(COMMANDS[name].kinds)
    if kinds[-1].endswith("+"):
        kinds[-1:] = [kinds[-1][:-1]] * draw(st.integers(1, 5))
    elif kinds[-1].endswith("?"):
        kinds[-1:] = [kinds[-1][:-1]] * draw(st.integers(0, 1))
    tokens = [
        draw(st.sampled_from(ANY_TOKEN if draw(st.integers(0, 9)) == 0 else FUZZ_TOKENS[kind]))
        for kind in kinds
    ]
    expect = draw(st.none() | st.sampled_from(FUZZ_EXPECT))
    return " ".join([name] + tokens) + ("" if expect is None else f" expect {expect}")


class TestCommandTableRobustness:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(task_body(), min_size=1, max_size=4))
    def test_task_lines_parse_or_fail_cleanly_and_run_to_an_outcome(self, bodies):
        accepted = []
        for i, body in enumerate(bodies):
            line = f"t{i} = {body}\n"
            try:
                parse_scenario_text(FUZZ_HEADER + line)
            except ParseError:
                continue
            accepted.append(line)
        # tasks are validated independently, so the accepted ones parse together
        scenario = parse_scenario_text(FUZZ_HEADER + "".join(accepted))
        assert isinstance(scenario, Scenario)
        outcomes = run_scenario(scenario).outcomes
        assert len(outcomes) == len(accepted)
        assert {o.status for o in outcomes} <= {"ok", "done", "mismatch", "error"}
