"""Manifest-driven command line front end.

Usage::

    formcalc run <scenario-file> [--machine] [--only <task-name>]
    formcalc verify <suite-name> [--n <int>]

``run`` executes a scenario's tasks in order, each through its entry in
:data:`formcalc.manifest.COMMANDS`, and prints a report: the default format
is human-readable; ``--machine`` emits one tab-separated line per task
(name, command, arguments, status, result, expected).  ``run --help`` lists
the task commands with their usage, read from the same table.  Exit codes:
0 when every expectation matched and no task errored, 1 on a mismatch or
failed verification, 2 on parse or usage errors.  Reports are
deterministic: identical input files produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .errors import AlgebraError, ParseError
from .exterior import Form, Multivector
from .manifest import COMMANDS, Scenario, Structures, Task, command_lines, parse_scenario
from .poly import Polynomial
from .suites import run_suite, suite_names


@dataclass
class TaskOutcome:
    task: Task
    status: str  # ok | done | mismatch | error
    result_text: str
    detail: str | None = None


@dataclass
class Report:
    """Per-task outcomes plus summary counts, rendered deterministically."""

    chart_names: tuple
    outcomes: list

    def counts(self) -> dict:
        totals = {"ok": 0, "done": 0, "mismatch": 0, "error": 0}
        for outcome in self.outcomes:
            totals[outcome.status] += 1
        return totals

    @property
    def exit_code(self) -> int:
        totals = self.counts()
        return 1 if totals["mismatch"] or totals["error"] else 0

    def render(self, machine: bool = False) -> str:
        if machine:
            lines = []
            for o in self.outcomes:
                expected = o.task.expect_text if o.task.expect_text is not None else "-"
                lines.append(
                    "\t".join([o.task.name, o.task.command, o.task.args_text, o.status, o.result_text, expected])
                )
            return "\n".join(lines) + "\n"
        lines = [f"chart: {' '.join(self.chart_names)}", ""]
        for o in self.outcomes:
            lines.append(f"task {o.task.name}: {o.task.command} {o.task.args_text}".rstrip())
            if o.status == "error":
                lines.append(f"  error: {o.detail}")
            else:
                lines.append(f"  result: {o.result_text}")
                if o.detail:
                    lines.append(f"  detail: {o.detail}")
                if o.task.expect_text is not None:
                    lines.append(f"  expect: {o.task.expect_text}")
            lines.append(f"  status: {o.status}")
            lines.append("")
        totals = self.counts()
        lines.append(
            "summary: tasks={} ok={} mismatch={} error={}".format(
                len(self.outcomes),
                totals["ok"] + totals["done"],
                totals["mismatch"],
                totals["error"],
            )
        )
        return "\n".join(lines) + "\n"


def _render_value(value) -> tuple[str, str | None]:
    if isinstance(value, tuple):  # suite outcome
        return value
    if isinstance(value, bool):
        return ("true" if value else "false"), None
    return str(value), None


def _values_match(result, expected) -> bool:
    """The CLI's own rules, then the values' own equality across polynomials, quotients and constants."""
    if isinstance(result, tuple):  # suite outcome vs 'pass'/'fail' literal
        return isinstance(expected, str) and result[0] == expected
    if isinstance(result, bool) or isinstance(expected, bool):
        return type(result) is type(expected) and result == expected
    if type(result) is not type(expected) and {type(result), type(expected)} & {Form, Multivector}:
        # a zero tensor prints as "0" and re-parses as the zero polynomial
        return all(isinstance(v, (Polynomial, Form, Multivector)) and v.is_zero() for v in (result, expected))
    return result == expected


def run_scenario(scenario: Scenario) -> Report:
    structures = Structures()
    outcomes = []
    for task in scenario.tasks:
        try:
            value = COMMANDS[task.command].run(structures, *task.resolved)
            result_text, detail = _render_value(value)
        except AlgebraError as exc:
            status, result_text, detail = "error", "-", str(exc)
        else:
            if task.expected is None:
                status = "done"
            else:
                status = "ok" if _values_match(value, task.expected) else "mismatch"
        outcomes.append(TaskOutcome(task, status, result_text, detail))
    return Report(scenario.chart.names, outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="formcalc",
        description="exact bracket computations driven by scenario manifests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run", help="run a scenario file", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="task commands:\n  " + "\n  ".join(command_lines()))
    run_parser.add_argument("scenario", help="path to the scenario file")
    run_parser.add_argument("--machine", action="store_true", help="tab-separated output")
    run_parser.add_argument("--only", metavar="TASK", help="run a single task by name")
    verify_parser = sub.add_parser("verify", help="run a built-in identity suite")
    verify_parser.add_argument("suite", help="one of: " + ", ".join(suite_names()))
    verify_parser.add_argument("--n", type=int, default=None, help="suite size parameter")

    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if options.command == "verify":
        try:
            ok, detail = run_suite(options.suite, options.n)
        except AlgebraError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"suite {options.suite}: {'pass' if ok else 'fail'} ({detail})")
        return 0 if ok else 1

    try:
        scenario = parse_scenario(options.scenario)
    except (OSError, UnicodeDecodeError) as exc:
        reason = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror or exc
        print(f"error: cannot read {options.scenario!r}: {reason}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if options.only is not None:
        scenario.tasks = [t for t in scenario.tasks if t.name == options.only]
        if not scenario.tasks:
            print(f"error: no task named {options.only!r}", file=sys.stderr)
            return 2
    report = run_scenario(scenario)
    sys.stdout.write(report.render(machine=options.machine))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
