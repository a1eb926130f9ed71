"""Line-oriented scenario manifests and the command table that runs them.

A scenario file has three sections::

    # comments run to end of line, blank lines are ignored
    [chart]
    q1 q2 p1 p2

    [define]
    f = q1^2 - 3/2*p1
    omega = d(p1)^d(q1) + d(p2)^d(q2)
    th = constraints(q2, p2)

    [tasks]
    t1 = power-bracket omega k=1 p1 q1 expect 1
    t2 = dirac-matrix omega th p1 q1 expect 1

The chart is declared exactly once, before any definition.  Definitions bind
names to polynomials, forms, multivectors or constraint lists; polynomial
names may be reused inside later expressions.  Task arguments are whitespace
tokens: a defined name, an inline space-free expression, or ``k=<int>`` /
``n=<int>`` where a command takes one.  An optional trailing ``expect
<value>`` records the expected result.

Every task command is one entry of :data:`COMMANDS`: its usage line, the
kinds of its arguments, an arity rule and an executor.  Parsing resolves the
arguments by kind and applies the arity rule, which raises the library's own
count, ``k``, parity or suite-size error, so all names, arities and expected
values are validated while parsing, before anything is computed;
the CLI runs a task with ``COMMANDS[task.command].run(structures,
*task.resolved)`` and prints the usage lines as its help.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .brackets import (
    BracketDef,
    _arity,
    _power_index,
    bracket,
    derived_vf,
    jacobiator,
    nambu_top_bracket,
    omega_power_bracket,
)
from .chart import _NAME_RE, Chart
from .dirac import ConstraintSet, calibrate_normalization, dirac_bracket_form, dirac_bracket_matrix
from .errors import AlgebraError, NotClosed, ParseError, checked
from .exterior import Form, Multivector, SymplecticData, _half_dimension, poisson_bivector
from .parsing import parse_expr, parse_tensor, parse_value
from .poly import Polynomial
from .schouten import is_poisson, jacobi_pair_check, schouten
from .suites import SUITES, _suite_size, run_suite


class Structures:
    """Structures derived from a scenario's definitions, each built once per run.

    Keys are the ``id`` of the defining values: a scenario binds every
    definition to one object that outlives the run, so one key means one
    definition.  Only successful builds are kept; a failed one is attempted
    again on the next request and raises again.  Only a form that is not
    closed has a bivector built outside its structure.
    """

    def __init__(self):
        self._built = {}

    def _get(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def sym(self, omega: Form) -> SymplecticData:
        return self._get(("sym", id(omega)), lambda: SymplecticData(omega))

    def constraints(self, omega: Form, thetas) -> ConstraintSet:
        return self._get(("constraints", id(omega), id(thetas)),
                          lambda: ConstraintSet(self.sym(omega), thetas))

    def bivector(self, omega: Form) -> Multivector:
        """The inverse bivector ``check-jacobi`` and ``check-poisson`` read: that of
        :meth:`sym`, so every command shares one inversion of the form, else, on a
        form that is not closed, its own, so that jacobiator witnesses on such
        forms stay reachable.  Any other failure of the structure is raised as
        it is: inverting the form again would only raise it again."""
        def build():
            try:
                return self.sym(omega).bivector
            except NotClosed:
                return poisson_bivector(omega)

        return self._get(("bivector", id(omega)), build)


@dataclass(frozen=True)
class Command:
    """One task command.

    ``kinds`` names the kind of each argument token; a last kind ending in
    ``+`` takes one or more further tokens (resolved as one list), one
    ending in ``?`` at most one (``None`` when absent).  ``arity`` sees the
    chart and the resolved arguments and raises the library's own error for
    them; ``run`` computes the result from the run's :class:`Structures`
    and the resolved arguments.
    """

    usage: str
    kinds: tuple[str, ...]
    run: Callable
    arity: Callable[[Chart, list], object] = lambda chart, args: None


def _suite_outcome(structures: Structures, suite: str, n: int | None):
    ok, detail = run_suite(suite, n)
    return ("pass" if ok else "fail", detail)


COMMANDS: dict[str, Command] = {
    "bracket": Command("volume alpha f1 ... fk", ("form", "form", "fn+"),
                       lambda s, volume, alpha, fs: bracket(BracketDef(volume, alpha), *fs),
                       lambda chart, args: _arity("bracket", args[2], chart.dim - args[1].grade)),
    "power-bracket": Command("omega k=<int> f1 ... f2k", ("form", "k", "fn+"),
                             lambda s, omega, k, fs: omega_power_bracket(s.sym(omega), k, *fs),
                             lambda chart, args: _arity(f"power-bracket with k={args[1]}", args[2],
                                                        2 * _power_index(_half_dimension(chart), args[1]))),
    "nambu": Command("volume gamma f1 ... fm", ("form", "fn", "fn+"),
                     lambda s, volume, gamma, fs: nambu_top_bracket(volume, gamma, *fs),
                     lambda chart, args: _arity("nambu", args[2], chart.dim)),
    "dirac-matrix": Command("omega constraints f g", ("form", "constraints", "fn", "fn"),
                            lambda s, omega, th, f, g:
                            dirac_bracket_matrix(s.constraints(omega, th), f, g)),
    "dirac-form": Command("omega constraints f g", ("form", "constraints", "fn", "fn"),
                          lambda s, omega, th, f, g: dirac_bracket_form(s.constraints(omega, th), f, g)),
    "derived-vf": Command("omega k=<int> f1 ... f2k-1", ("form", "k", "fn+"),
                          lambda s, omega, k, fs: derived_vf(s.sym(omega), k, *fs),
                          lambda chart, args: _arity(f"derived-vf with k={args[1]}", args[2],
                                                     2 * _power_index(_half_dimension(chart), args[1]) - 1)),
    "schouten": Command("multivector multivector", ("mv", "mv"),
                        lambda s, a, b: schouten(a, b)),
    "check-jacobi": Command("omega f g h", ("form", "fn", "fn", "fn"),
                            lambda s, omega, f, g, h: jacobiator(s.bivector(omega), f, g, h),
                            lambda chart, args: _half_dimension(chart)),
    "check-poisson": Command("form-or-bivector", ("tensor",),
                             lambda s, value: is_poisson(value if isinstance(value, Multivector)
                                                         else s.bivector(value))),
    "check-jacobi-pair": Command("bivector field", ("mv", "mv"),
                                 lambda s, bivector, field: jacobi_pair_check(bivector, field)),
    "calibrate-dirac": Command("omega constraints", ("form", "constraints"),
                               lambda s, omega, th: calibrate_normalization(s.constraints(omega, th))),
    "verify-suite": Command("suite-name [n=<int>]", ("suite", "n?"), _suite_outcome,
                            lambda chart, args: _suite_size(args[1])),
}

# kind -> (accepted type, label in error messages) for kinds that name a definition
_DEFINED_KINDS = {
    "fn": (Polynomial, "a function"),
    "form": (Form, "a form"),
    "mv": (Multivector, "a multivector"),
    "tensor": ((Form, Multivector), "a form or multivector"),
    "constraints": (list, "a constraint list"),
}


def command_lines() -> list[str]:
    """``command usage`` for every command, in table order."""
    return [f"{name} {command.usage}" for name, command in COMMANDS.items()]


@dataclass
class Task:
    name: str
    command: str
    args_text: str
    resolved: list
    expect_text: str | None
    expected: object | None


@dataclass
class Scenario:
    chart: Chart
    definitions: dict[str, object]
    tasks: list[Task] = field(default_factory=list)


def _fail(message: str, line: int, column: int | None = None):
    raise ParseError(message, line, column)


def _named(body: str, line: int, usage: str) -> tuple[str, str]:
    """``(name, rest)`` of the line ``name = rest``; the name must be one
    identifier, as coordinate names are, or the error is at its column."""
    left, eq, rest = body.partition("=")
    name = left.strip()
    if not eq or not name:
        _fail(usage, line)
    if not _NAME_RE.match(name):
        _fail(f"name {name!r} is not an identifier", line, len(left) - len(left.lstrip()) + 1)
    return name, rest


class _Builder:
    def __init__(self):
        self.chart: Chart | None = None
        self.definitions: dict[str, object] = {}
        self.poly_env: dict[str, Polynomial] = {}
        self.tasks: list[Task] = []

    # -- definitions -------------------------------------------------------

    def add_chart(self, body: str, line: int):
        if self.chart is not None:
            _fail("chart declared more than once", line)
        names = body.split()
        try:
            self.chart = Chart(names)
        except ValueError as exc:
            _fail(str(exc), line)

    def _need_chart(self, line: int) -> Chart:
        if self.chart is None:
            _fail("the [chart] section must come first", line)
        return self.chart

    def add_definition(self, body: str, line: int):
        chart = self._need_chart(line)
        name, rest = _named(body, line, "expected 'name = expression'")
        text = rest.strip()
        if not text:
            _fail("expected 'name = expression'", line)
        if name in self.definitions or name in chart:
            _fail(f"name {name!r} is already declared", line)
        offset = len(body) - len(rest.lstrip())  # of ``text`` in the line
        if text.startswith("constraints(") and text.endswith(")"):
            offset += len("constraints(")
            items = text[len("constraints("):-1].split(",")
            if not any(item.strip() for item in items):
                _fail("empty constraint list", line, offset + 1)
            value = []
            for item in items:
                value.append(self._parse(parse_expr, item, line, offset))
                offset += len(item) + 1
        else:
            value = self._parse(parse_tensor, text, line, offset)
        self.definitions[name] = value
        if isinstance(value, Polynomial):
            self.poly_env[name] = value

    def _parse(self, parse, text: str, line: int, offset: int, prefix: str = ""):
        """``parse(text)``, with a parse error's column moved right by
        ``offset``, the position of ``text`` in the line, and ``prefix``
        put before its message."""
        try:
            return parse(text, self.chart, self.poly_env)
        except ParseError as exc:
            _fail(prefix + exc.message, line, exc.column + offset)

    # -- task argument resolution -------------------------------------------

    def add_task(self, body: str, line: int):
        self._need_chart(line)
        name, rest = _named(body, line, "expected 'name = command arguments...'")
        if any(task.name == name for task in self.tasks):
            _fail(f"task name {name!r} is already used", line)
        start = len(body) - len(rest)  # of ``rest`` in the line
        # (token, offset in the line) for every whitespace-separated token
        words = [(match.group(), start + match.start()) for match in re.finditer(r"\S+", rest)]
        if not words:
            _fail("missing command", line)
        (command, offset), *args = words
        if command not in COMMANDS:
            _fail(f"unknown command {command!r}", line, offset + 1)
        tokens = [token for token, _ in args]
        expect_text = None
        if "expect" in tokens:
            where = tokens.index("expect")
            if where + 1 == len(args):
                _fail("'expect' needs a value", line, args[where][1] + 1)
            expect_text = " ".join(tokens[where + 1:])
            expect_at = args[where + 1][1]
            args, tokens = args[:where], tokens[:where]
        resolved = self._arguments(command, args, line)
        expected = None
        if expect_text is not None:
            expected = self._parse(parse_value, body[expect_at:], line, expect_at, "bad expected value: ")
        task = Task(name, command, " ".join(tokens), resolved, expect_text, expected)
        self.tasks.append(task)

    def _argument(self, kind: str, token: str, offset: int, line: int):
        """The value of the argument ``token``, which starts at ``offset`` in the line."""
        column = offset + 1
        if kind in ("k", "n"):
            prefix = kind + "="
            if not token.startswith(prefix) or not token[len(prefix):].isdecimal():
                _fail(f"expected '{prefix}<integer>', got {token!r}", line, column)
            # the parser's own integer rule, which refuses a literal too long to convert
            literal = self._parse(parse_expr, token[len(prefix):], line, offset + len(prefix))
            return int(literal.constant_value())
        if kind == "suite":
            if token not in SUITES:
                _fail(f"unknown suite {token!r}", line, column)
            return token
        value = self.definitions.get(token)
        if value is None:
            if kind != "fn":
                _fail(f"undeclared name {token!r}", line, column)
            # a function may also be written inline
            return self._parse(parse_expr, token, line, offset)
        wanted, label = _DEFINED_KINDS[kind]
        if wanted in (Form, Multivector) and isinstance(value, Polynomial):
            return wanted.from_polynomial(value)  # grade-0 embeds a function
        if not isinstance(value, wanted):
            _fail(f"{token!r} is not {label}", line, column)
        return value

    def _arguments(self, name: str, tokens: list[tuple[str, int]], line: int) -> list:
        command = COMMANDS[name]
        kinds = command.kinds
        tail = kinds[-1][-1] if kinds[-1][-1] in "+?" else ""
        fixed = kinds[:-1] if tail else kinds
        least = len(fixed) + (tail == "+")
        most = {"": len(fixed), "?": len(fixed) + 1, "+": len(tokens)}[tail]
        if not least <= len(tokens) <= most:
            _fail(f"{name} takes: {command.usage}", line)
        values = [self._argument(kind, *word, line) for kind, word in zip(fixed, tokens)]
        extra = [self._argument(kinds[-1][:-1], *word, line) for word in tokens[len(fixed):]]
        if tail == "+":
            values.append(extra)
        elif tail == "?":
            values.append(extra[0] if extra else None)
        try:
            command.arity(self.chart, values)
        except AlgebraError as exc:
            _fail(str(exc), line)
        return values


def parse_scenario_text(text: str) -> Scenario:
    builder = _Builder()
    section = None
    # lines end at \n, \r\n or \r, as a file read ends them; other Unicode breaks stay in the line
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", checked(text, str, "scenario text")), start=1):
        line = raw.split("#", 1)[0].rstrip()  # keeps the indent, which error columns count
        if not line.strip():
            continue
        if line.lstrip().startswith("[") and line.endswith("]"):
            section = line.lstrip()[1:-1].strip().lower()
            if section not in ("chart", "define", "tasks"):
                _fail(f"unknown section {section!r}", lineno)
            continue
        if section is None:
            _fail("content before the first section header", lineno)
        if section == "chart":
            builder.add_chart(line, lineno)
        elif section == "define":
            builder.add_definition(line, lineno)
        else:
            builder.add_task(line, lineno)
    if builder.chart is None:
        _fail("no [chart] section", 1)
    return Scenario(builder.chart, builder.definitions, builder.tasks)


def parse_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    text = Path(checked(path, (str, os.PathLike), "scenario path")).read_text(encoding="utf-8")
    return parse_scenario_text(text)
