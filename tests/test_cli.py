import hashlib
import io
import os
import string
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formcalc
from formcalc import ParseError, parse_scenario, parse_scenario_text, parse_value
from formcalc.cli import main, run_scenario
from formcalc.manifest import command_lines
from tests.cli_cases import CASES

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_case(argv, limit):
    """``run_cli(argv)``, or with a ``limit`` the same formcalc in a child
    process stopped after ``limit`` seconds."""
    if limit is None:
        return run_cli(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(formcalc.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "formcalc.cli", *argv], capture_output=True,
                          encoding="utf-8", timeout=limit, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(case, tmp_path):
    path = tmp_path / "case.scn"
    path.write_text(case.text + "\n", encoding="utf-8")
    code, out, err = run_case(["run", str(path)], case.limit)
    both = out + err
    assert code == case.code, both[-2000:]
    assert "Traceback" not in both
    if case.code == 2:
        assert out == ""
    for pattern in case.patterns:
        assert pattern in both
    if case.outcomes is not None:
        assert tuple(line for line in both.splitlines() if line.startswith(("  result:", "  error:"))) == case.outcomes
    if case.digest is not None:
        machine = run_case(["run", str(path), "--machine"], case.limit)[1]
        assert hashlib.sha256(machine.encode()).hexdigest() == case.digest


class TestRun:
    def test_exit_zero_on_full_match(self):
        code, out, _ = run_cli(["run", str(SCENARIOS / "dirac.scn")])
        assert code == 0
        assert "summary: tasks=9 ok=9 mismatch=0 error=0" in out

    def test_machine_format(self):
        code, out, _ = run_cli(["run", str(SCENARIOS / "divergence.scn"), "--machine"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert fields[0] == "jac"
        assert fields[1] == "check-jacobi"
        assert fields[3] == "ok"

    def test_missing_file_exit_two(self):
        code, _, err = run_cli(["run", "nowhere.scn"])
        assert code == 2
        assert "nowhere.scn" in err

    def test_directory_exit_two(self, tmp_path):
        code, out, err = run_cli(["run", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_non_utf8_file_exit_two(self, tmp_path):
        scn = tmp_path / "latin1.scn"
        scn.write_bytes("[chart]\nq1 p1\n# caf\u00e9\n".encode("latin-1"))
        code, out, err = run_cli(["run", str(scn)])
        assert code == 2
        assert out == ""
        assert "cannot read" in err and "latin1.scn" in err

    def test_only_filter(self):
        code, out, _ = run_cli(["run", str(SCENARIOS / "dirac.scn"), "--only", "cal"])
        assert code == 0
        assert out.count("task ") == 1
        assert "task cal:" in out

    def test_only_unknown_task(self):
        code, _, err = run_cli(["run", str(SCENARIOS / "dirac.scn"), "--only", "zz"])
        assert code == 2
        assert "zz" in err

    def test_coefficient_past_the_digit_limit_is_a_task_error(self, tmp_path):
        # {10^700*q1^2, p1} = 2*10^700*q1 has 701 digits, past a limit
        # lowered to 640 for the test: that task is an error, the next runs
        scn = tmp_path / "digits.scn"
        scn.write_text("[chart]\nq1 p1\n\n[define]\nomega = d(p1)^d(q1)\nf = 10^700*q1^2\n\n[tasks]\n"
                       "big = power-bracket omega k=1 f p1\nsmall = power-bracket omega k=1 p1 q1 expect 1\n")
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(["run", str(scn)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (1, "")
        assert "error: coefficient has more than 640 digits" in out
        assert "summary: tasks=2 ok=1 mismatch=0 error=1" in out

    def test_usage_error(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2


class TestCommandHelp:
    def test_readme_lists_the_command_table(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Commands", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
        assert block.splitlines() == command_lines()

    def test_run_help_lists_the_command_table(self):
        code, out, _ = run_cli(["run", "--help"])
        assert code == 0
        listed = out.split("task commands:\n", 1)[1].splitlines()
        assert [line.strip() for line in listed] == command_lines()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["magnetic", "divergence", "dirac"])
    def test_repeat_runs_are_byte_identical(self, name):
        path = str(SCENARIOS / f"{name}.scn")
        _, first, _ = run_cli(["run", path])
        _, second, _ = run_cli(["run", path])
        assert first == second

    @pytest.mark.parametrize("name", ["magnetic", "divergence", "dirac"])
    def test_printed_values_reparse_canonically(self, name):
        # printing is canonical: parse(print(v)) prints back byte-identically
        scenario = parse_scenario(SCENARIOS / f"{name}.scn")
        report = run_scenario(scenario)
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            if outcome.result_text in ("true", "false", "pass", "fail"):
                continue
            value = parse_value(outcome.result_text, scenario.chart)
            assert str(value) == outcome.result_text

    def test_report_render_matches_main_output(self):
        scenario = parse_scenario(SCENARIOS / "dirac.scn")
        report = run_scenario(scenario)
        _, out, _ = run_cli(["run", str(SCENARIOS / "dirac.scn")])
        assert report.render() == out
        assert report.exit_code == 0


class TestScenarioEdits:
    """A random 1-4 character edit of a bundled scenario ends in a report, a
    parse error or a task error, and never in another exception."""

    TEXTS = [path.read_text(encoding="utf-8") for path in sorted(SCENARIOS.glob("*.scn"))]
    CHARACTERS = st.sampled_from(string.printable) | st.characters()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edit_ends_in_a_report_or_a_parse_error(self, data):
        text = data.draw(st.sampled_from(self.TEXTS))
        start = data.draw(st.integers(0, len(text)))
        action = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        size = data.draw(st.integers(1, 4))
        new = "" if action == "delete" else data.draw(st.text(self.CHARACTERS, min_size=size, max_size=size))
        edited = text[:start] + new + text[start + (0 if action == "insert" else size):]
        try:
            scenario = parse_scenario_text(edited)
        except ParseError:
            return
        report = run_scenario(scenario)
        assert report.render() and report.render(machine=True)
        assert {outcome.status for outcome in report.outcomes} <= {"ok", "done", "mismatch", "error"}


MATCH_SCENARIO = """
[chart]
q1 q2 q3 p1 p2 p3

[define]
omega = d(p1)^d(q1) + d(p2)^d(q2) + d(p3)^d(q3)
th = constraints(q3, p3)

[tasks]
"""

# (task line, status): how a result is matched against its expected value
MATCH_ROWS = [
    # bools match bools only
    ("check-poisson omega expect true", "ok"),
    ("check-poisson omega expect 1", "mismatch"),
    ("power-bracket omega k=1 q1 q2 expect false", "mismatch"),
    # a zero tensor prints as 0, which re-parses as the zero polynomial
    ("derived-vf omega k=1 1 expect 0", "ok"),
    ("derived-vf omega k=1 1 expect e(q1) - e(q1)", "ok"),
    ("derived-vf omega k=1 1 expect d(q1) - d(q1)", "ok"),
    ("power-bracket omega k=1 q1 q2 expect d(q1) - d(q1)", "ok"),
    ("check-poisson omega expect e(q1) - e(q1)", "mismatch"),
    # a nonzero tensor against 0, either way round
    ("derived-vf omega k=1 p1 expect 0", "mismatch"),
    ("power-bracket omega k=1 q1 q2 expect d(q1)", "mismatch"),
    # quotients and polynomials compare by cross-multiplication, either way round
    ("dirac-form omega th p1 q1 expect 1", "ok"),
    ("dirac-form omega th p1 q1 expect 2", "mismatch"),
    ("dirac-form omega th p1 q1 expect d(q1)", "mismatch"),
    ("power-bracket omega k=1 p1 q1 expect (q1) / (q1)", "ok"),
    ("power-bracket omega k=1 p1 q1 expect (2) / (1)", "mismatch"),
    # a rational constant against a polynomial or a quotient
    ("calibrate-dirac omega th expect 1/2", "ok"),
    ("calibrate-dirac omega th expect (1) / (2)", "ok"),
    ("calibrate-dirac omega th expect 1", "mismatch"),
    # a suite outcome matches its pass/fail literal only
    ("verify-suite power-contraction n=1 expect pass", "ok"),
    ("verify-suite power-contraction n=1 expect fail", "mismatch"),
    ("verify-suite power-contraction n=1 expect 1", "mismatch"),
    ("power-bracket omega k=1 p1 q1 expect pass", "mismatch"),
]


def test_expected_values_are_matched_by_kind():
    scenario = parse_scenario_text(MATCH_SCENARIO + "".join(
        f"t{i} = {task}\n" for i, (task, _) in enumerate(MATCH_ROWS)))
    outcomes = run_scenario(scenario).outcomes
    assert [(task, o.status) for (task, _), o in zip(MATCH_ROWS, outcomes)] == MATCH_ROWS


class TestVerify:
    def test_pass(self):
        code, out, _ = run_cli(["verify", "power-contraction", "--n", "2"])
        assert code == 0
        assert "pass" in out

    def test_unknown_suite(self):
        code, _, err = run_cli(["verify", "nonsense"])
        assert code == 2
        assert "nonsense" in err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_size_below_one_rejected(self, size):
        code, out, err = run_cli(["verify", "power-contraction", "--n", size])
        assert code == 2
        assert out == ""
        assert "at least 1" in err

class TestSuites:
    def test_every_builtin_suite_passes(self):
        from formcalc import run_suite, suite_names

        for name in suite_names():
            ok, detail = run_suite(name)
            assert ok, (name, detail)

    @pytest.mark.parametrize("size, checked", [(1, 1), (6, 6), (None, 55)])
    def test_pairing_suite_checks_exactly_n(self, size, checked):
        from formcalc import run_suite

        assert run_suite("pairing-consistency", size) == (True, f"checked {checked} random instances, k=1..4")
