"""A seeded generator of parser inputs, and the outcomes the parser gives them.

:func:`outcome_lines` draws texts from fixed seeds with :mod:`random` alone
and puts each through :func:`parse_tensor` and :func:`parse_value`, and each
scenario text through :func:`parse_scenario_text`.  Every outcome is one
line: the kind, grade, degree bound and printed value of the result, or the
error class, message, line and column.  ``tests/golden/parse_outcomes.txt``
holds the lines, and ``tests/test_parsing.py`` compares them byte for byte.

The texts lean on the edges of the grammar: fractions and ``INT/INT^INT``,
``INT^INT`` on the bases 0, 1 and 2 around :data:`MAX_EXPONENT`, coordinate
powers at ``2^32 - 1`` and ``2^32``, zero sums in parentheses that hold such
powers, negated and multiplied, minuses before ``(`` and after ``*``,
literals after a parenthesized factor, ``d`` and ``e`` as coordinate names,
literals too long to convert, environment names, mixed wedge chains, plain
random token strings, and one noise token in 10 % of the texts.  A scenario
defines names and reuses them, so a degree bound carried by a name is
checked again by a later definition.

Rewrite the golden (only in a change that says why its outcomes move) with::

    PYTHONPATH=src python -m tests.parse_golden > tests/golden/parse_outcomes.txt
"""

import hashlib
import random
import sys

from formcalc import AlgebraError, Chart, Form, Multivector, Polynomial, RationalExpr, parse_tensor, parse_value
from formcalc.manifest import parse_scenario_text

SEEDS = (1, 2, 3, 4)
TEXTS_PER_SEED = 700
SCENARIOS_PER_SEED = 75
# the interpreter's default, so a literal of more digits is "too long" on every version and setting
INT_DIGITS = 4300

BIG = 2**32
LONG = "9" * (INT_DIGITS + 1)
# each list of choices is drawn from as (common, rare), the rare half mostly errors
INTS = (["0", "1", "2", "3", "7", "12", "18446744073709551617"], [LONG])
DENOMINATORS = (["1", "2", "3", "4"], ["0", "q1", LONG])
SMALL_EXPONENTS = (["0", "1", "2", "3"], ["q1", LONG, ")"])
# exponents up to MAX_EXPONENT and past it go on the bases 0, 1 and 2 only, so every value prints
EXPONENTS = (["0", "1", "2", "3", "1000", "1001", "5000", str(BIG - 1), str(BIG)], ["q1", LONG, ")"])
COORDINATE_EXPONENTS = (["0", "1", "2", "3"] * 8 + [str(2**31), str(BIG - 1), str(BIG)], ["p1", LONG])
ZERO_SUMS = [
    f"(q1^{BIG - 1} - q1^{BIG - 1})",
    "(q2 - q2)",
    f"(p1^{2**31} - p1^{2**31} + 4^2)",
    f"(0*q1^{BIG - 1} + p1)",
    f"(0*q1^{BIG - 1}*p1^2 + q2)",
    f"(q1^{BIG - 1}*(p1 + 1) - q1^{BIG - 1}*p1 - q1^{BIG - 1})",
    f"(q1^{BIG - 1} - q1^{BIG - 1} + (p1 + 1))",
    # literals after a zero factor, whose powers sum past 2^32
    f"(q2 - q2)*q1^{BIG - 1}*p1",
    f"(p1 + 1)*0*p2^{BIG - 1}*p2^2",
]
NOISE = ["0", "1", "2", "3", "q1", "p2", "f", "zz", "d", "e", "d(q1)", "e(p1)", "+", "-", "*", "^", "/", "(", ")",
                    "$", ",", "true", LONG]

CHART = Chart(("q1", "q2", "p1", "p2"))
ENV = {
    "f": parse_tensor("q1 + 1", CHART),
    "g": parse_tensor("q2 - q2", CHART),  # zero, of degree bound 1
    "h": parse_tensor(f"q1^{BIG - 1}", CHART),
    "k": parse_tensor("2*p1^2 + 1/3", CHART),
}
DE_CHART = Chart(("d", "e", "x", "y"))
DE_ENV = {"f": parse_tensor("x + 1", DE_CHART)}


class _Draw:
    """Random texts on one chart and its environment names."""

    def __init__(self, rng: random.Random, chart: Chart, env_names, rare: float = 0.03):
        self.rng = rng
        self.rare = rare
        self.names = chart.names
        self.env_names = list(env_names)

    def pick(self, options):
        return self.rng.choice(options)

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def draw(self, choices) -> str:
        common, rare = choices
        return self.pick(rare if self.chance(self.rare) else common)

    def minuses(self) -> str:
        return self.pick(["", "", "", "", "", "", "-", "-", "- ", "--"])

    def literal(self) -> str:
        roll = self.rng.random()
        if roll < 0.4:
            text = self.pick(self.names)
            if self.chance(0.5):
                text += "^" + self.draw(COORDINATE_EXPONENTS)
            return text
        text = self.draw(INTS)
        if roll < 0.7:
            text += "/" + self.draw(DENOMINATORS)
        if self.chance(0.1):
            text = self.draw((["0", "1", "2", "1/2", "2/1"], ["2/0"])) + "^" + self.draw(EXPONENTS)
        elif self.chance(0.15):
            text += "^" + self.draw(SMALL_EXPONENTS)
        return text

    def other(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.3 and self.env_names:
            text = self.draw((self.env_names, ["zz"]))
        elif roll < 0.45:
            text = self.pick(ZERO_SUMS) if self.names == CHART.names else f"({self.expr(depth + 1)})"
        else:
            text = f"({self.expr(depth + 1)})" if depth < 2 else f"({self.literal()} + 1)"
        if self.chance(0.25):
            text += "^" + self.draw((["0", "1", "2", "3"], ["1001", str(BIG), "q1"]))
        return text

    def factor(self, depth: int) -> str:
        text = self.literal() if self.chance(0.65) or depth > 2 else self.other(depth)
        return self.minuses() + text

    def chain(self, kind: str, grade: int) -> str:
        letters = [kind] * self.draw(([grade], [1, 2, 3, 5]))
        if self.chance(0.05):
            letters[self.rng.randrange(len(letters))] = "e" if kind == "d" else "d"
        text = "^".join(f"{letter}({self.pick(self.names)})" for letter in letters)
        return text + self.draw(([""], ["^2", "*2", "^q1", "*q1"]))

    def term(self, depth: int, tensor: tuple | None) -> str:
        count = self.pick([0, 1, 1, 2, 2, 3, 4]) if tensor else self.pick([1, 1, 2, 2, 3, 4])
        factors = [self.factor(depth) for _ in range(count)]
        if self.chance(0.05):
            factors.insert(0, self.pick(["0", "-0", "0/2"]))
        if tensor:
            factors.append(self.minuses() + self.chain(*tensor))
        return self.pick(["*", " * "]).join(factors)

    def expr(self, depth: int = 0, tensor: bool = False) -> str:
        """A sum of terms; with ``tensor``, each ends in a wedge chain of one
        letter and length, but for a rare other."""
        tensor = (self.pick("de"), self.pick([1, 2, 2, 3])) if tensor else None
        text = self.term(depth, tensor)
        for _ in range(self.pick([0, 0, 1, 1, 2])):
            text += self.pick([" + ", " - ", "-", "+"]) + self.term(depth, tensor)
        return text

    def text(self) -> str:
        roll = self.rng.random()
        if roll < 0.08:
            text = " ".join(self.pick(NOISE) for _ in range(self.rng.randint(1, 8)))
        elif roll < 0.16:
            text = f"({self.expr()}) / ({self.expr()})"
        else:
            text = self.expr(tensor=self.chance(0.3))
        if self.chance(0.1):
            words = text.split(" ")
            where = self.rng.randrange(len(words) + 1)
            words[where:where + self.rng.randint(0, 1)] = [self.pick(NOISE)]
            text = " ".join(words)
        return text

    def scenario(self) -> str:
        """A scenario on the 4-dim chart whose definitions ``a``, ``b`` and
        ``c`` may each name the ones before, and a task half the time."""
        plain = _Draw(self.rng, CHART, [], rare=0.005)
        lines = ["[chart]", "q1 q2 p1 p2", "", "[define]", "omega = d(p1)^d(q1) + d(p2)^d(q2)"]
        names = []
        for name in ("a", "b", "c"):
            roll = self.rng.random()
            if roll < 0.3:
                body = _Draw(self.rng, CHART, names, rare=0.005).expr(depth=1)
            elif roll < 0.6 or not names:
                zero = self.pick(ZERO_SUMS)
                body = self.pick([zero, f"-{zero}", f"{zero}*{plain.literal()}", f"{plain.literal()}*-{zero}"])
            else:
                body = f"{self.pick(names)}*{self.pick(['q1', f'q1^{BIG - 1}', 'p1^2', '2', '(p2 + 1)'])}"
            lines.append(f"{name} = {body}")
            names.append(name)
        lines += ["", "[tasks]"]
        if self.chance(0.5):
            argument = plain.expr(depth=1).replace(" ", "")
            lines.append(f"t = power-bracket omega k=1 {argument} q1 expect {plain.expr(depth=1)}")
        return "\n".join(lines) + "\n"


def _short(text: str) -> str:
    """``text``, or for more than 160 characters its ends, length and digest."""
    if len(text) <= 160:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{text[:60]}...{text[-20:]} [{len(text)} chars, sha256 {digest}]"


def _bound(value) -> int:
    if isinstance(value, Polynomial):
        return value._degree
    return max((c._degree for c in value.terms.values()), default=0)


def _described(value) -> str:
    if isinstance(value, (Polynomial, Form, Multivector)):
        grade = getattr(value, "grade", 0)
        return f"{type(value).__name__} grade {grade} bound {_bound(value)}: {_short(str(value))}"
    if isinstance(value, RationalExpr):
        bounds = f"{value.numerator._degree}/{value.denominator._degree}"
        return f"RationalExpr bound {bounds}: {_short(str(value))}"
    if isinstance(value, list):
        return "[" + ", ".join(_described(item) for item in value) + "]"
    return repr(value)


def _error(exc: AlgebraError) -> str:
    where = getattr(exc, "line", None), getattr(exc, "column", None)
    return f"{type(exc).__name__} {getattr(exc, 'message', str(exc))!r} line {where[0]} column {where[1]}"


def _outcome(parse, *args) -> str:
    try:
        return _described(parse(*args))
    except AlgebraError as exc:
        return _error(exc)


def _scenario_outcome(text: str) -> str:
    try:
        scenario = parse_scenario_text(text)
    except AlgebraError as exc:
        return _error(exc)
    parts = [f"{name} = {_described(value)}" for name, value in scenario.definitions.items() if name != "omega"]
    parts += [f"{task.name}: {_described(task.resolved[2])}, expect {_described(task.expected)}"
              for task in scenario.tasks]
    return "; ".join(parts)


def outcome_lines() -> list[str]:
    """Every golden line, one per text and parse function and one per scenario."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_DIGITS)
    try:
        lines = []
        for seed in SEEDS:
            rng = random.Random(seed)
            for i in range(TEXTS_PER_SEED):
                chart, env = (DE_CHART, DE_ENV) if i % 10 == 9 else (CHART, ENV)
                text = _Draw(rng, chart, env).text()
                where = f"{seed}.{i} {' '.join(chart.names)} {_short(repr(text))}"
                tensor, value = _outcome(parse_tensor, text, chart, env), _outcome(parse_value, text, chart, env)
                lines.append(f"{where} -> {tensor}" if value == tensor else f"{where} -> {tensor} || value -> {value}")
            for i in range(SCENARIOS_PER_SEED):
                text = _Draw(rng, CHART, []).scenario()
                defined = " | ".join(text.splitlines()[5:])  # after the chart and omega
                lines.append(f"{seed}.s{i} {_short(repr(defined))} -> {_scenario_outcome(text)}")
        return lines
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in outcome_lines()))
