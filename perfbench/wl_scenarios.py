"""Workload ``scenario-corpus``: seeded scenario texts run the way the CLI runs them.

Each op takes one scenario text through ``parse_scenario_text`` ->
``run_scenario`` -> ``Report.render(machine=True)``, which is what
``formcalc run --machine`` does after reading its file.  Every scenario
builds its own short-lived structures, and the Dirac tasks run small
constraint matrices whose entries are polynomials, so this workload uses the
matrix algebra differently from ``dense-symplectic``.  It is the only one
that exercises parsing, the manifest, the CLI runner, ``exact_divide``,
``Polynomial.__pow__`` and the Dirac recalibration inside ``dirac-form``.

Every task's value is known by construction, worked out here with the
plain-dict polynomials of :mod:`qpoly`:

* ``calibrate-dirac`` gives ``1/(n-k)``; the Dirac bracket of a constraint
  with anything is 0; each ``dirac-form`` result must equal its
  ``dirac-matrix`` twin;
* ``nambu`` of functions that are triangular in a permuted coordinate order
  gives ``sign(perm) * gamma / c``;
* ``power-bracket`` k=1 of ``a^d1`` and ``b^d2`` for linear ``a``, ``b`` gives
  ``d1*d2*{a,b}*a^(d1-1)*b^(d2-1)``;
* on a magnetic form with divergence-free field ``B = curl A``:
  ``derived-vf k=2 p1 p2 p3`` gives ``B^i e(q_i)``, ``check-jacobi`` gives 0
  and ``check-poisson`` gives true;
* ``schouten`` of two vector fields is their Lie bracket, and ``derived-vf``
  k=3 of Darboux coordinates ``p1 q1 p2 q2 p3`` gives ``e(q3)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import qpoly
from common import Op, darboux_names

# One block of scenarios: (theme, n, constraint pairs); the chart is 2n-dim.
# Sorted by cost the slots form bands: eight cheap ones, four 8-dim
# structure scenarios around the median, and eight costly ones, of which the
# three power-bracket scenarios hold the 90th percentile.  So both
# percentiles fall inside one band for every seed.  A quarter of the
# scenarios are on the 10-dimensional chart.
SLOTS = (
    ("nambu", 2, 0),
    ("nambu", 3, 0),
    ("nambu", 4, 0),
    ("nambu", 5, 0),
    ("dirac", 2, 1),
    ("dirac", 3, 1),
    ("dirac", 4, 1),
    ("structure", 3, 0),
    ("structure", 4, 0),
    ("structure", 4, 0),
    ("structure", 4, 0),
    ("structure", 4, 0),
    ("dirac", 4, 2),
    ("dirac", 5, 2),
    ("structure", 5, 0),
    ("dirac", 4, 3),
    ("power", 3, 0),
    ("power", 4, 0),
    ("power", 5, 0),
    ("dirac", 5, 3),
)
OPS_PER_BLOCK = len(SLOTS)
BLOCK_SECONDS = 1.6
# power-bracket exponents (d1, d2) per chart half-dimension, fixed so that
# every seed has the same size distribution
POWER_DEGREES = {3: (9, 5), 4: (7, 6), 5: (5, 8)}


def _standard_text(n):
    return " + ".join(f"d(p{j})^d(q{j})" for j in range(1, n + 1))


def _field_text(components, names):
    """Canonical text of a vector field, in the order formcalc prints it."""
    dim = len(names)
    parts = []
    for i in sorted(components):
        p = components[i]
        if not p:
            continue
        atom = f"e({names[i]})"
        if set(p) == {(0,) * dim}:
            c = p[(0,) * dim]
            sign, coeff = ("-" if c < 0 else "+"), ("" if abs(c) == 1 else str(abs(c)))
        elif len(p) == 1:
            (e, c), = p.items()
            sign, coeff = ("-" if c < 0 else "+"), qpoly.render({e: abs(c)}, names)
        else:
            sign, coeff = "+", f"({qpoly.render(p, names)})"
        parts.append((sign, f"{coeff} * {atom}" if coeff else atom))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class _Text:
    """Accumulates one scenario: definitions, tasks, and what each must yield."""

    def __init__(self, n):
        self.n = n
        self.dim = 2 * n
        self.names = darboux_names(n)
        self.defines = []
        self.tasks = []
        self.known = {}   # task name -> canonical result text, or a product to expand
        self.zero = []    # task names whose rational result must be 0
        self.twins = []   # (dirac-form task, dirac-matrix task)

    def define(self, name, text):
        self.defines.append(f"{name} = {text}")

    def poly(self, p, spaced=True):
        return qpoly.render(p, self.names, spaced)

    def task(self, name, body, expect=None):
        self.tasks.append(f"{name} = {body}" + (f" expect {expect}" if expect is not None else ""))

    def source(self):
        return "\n".join(
            ["[chart]", " ".join(self.names), "", "[define]", *self.defines, "", "[tasks]", *self.tasks, ""]
        )


def _rand(rng, s, nterms, dmin, dmax, variables=None):
    return qpoly.rand_poly(rng, s.dim, nterms, dmin, dmax, variables)


def _dirac(rng, s, pairs):
    n = s.n
    free = [j for j in range(n - pairs)] + [n + j for j in range(n - pairs)]
    s.define("omega", _standard_text(n))
    # with two-term corrections, three pairs on 10 dimensions build a 6x6
    # constraint matrix in 0.35-1.2 s depending on the seed, which would
    # swamp the pass; one-term corrections keep that case in the mix
    terms = 1 if (n, pairs) == (5, 3) else 2
    thetas = []
    for a in range(n - pairs, n):
        for base in (a, n + a):
            theta = qpoly.add(qpoly.monomial(s.dim, base), _rand(rng, s, terms, 2, 2, free))
            name = f"t{len(thetas) + 1}"
            s.define(name, s.poly(theta))
            thetas.append(name)
    s.define("th", f"constraints({', '.join(thetas)})")
    for name in ("f", "g", "h"):
        s.define(name, s.poly(_rand(rng, s, 2, 1, 2)))
    s.task("cal", "calibrate-dirac omega th", "1" if n - pairs == 1 else f"1/{n - pairs}")
    s.known["cal"] = str(Fraction(1, n - pairs))
    s.task("zm", "dirac-matrix omega th t1 g", "0")
    s.task("zf", "dirac-form omega th t1 g", "0")
    s.zero += ["zm", "zf"]
    s.task("fm", "dirac-matrix omega th f h")
    s.task("ff", "dirac-form omega th f h")
    s.twins.append(("ff", "fm"))


def _nambu(rng, s):
    m = s.dim
    order = list(range(m))
    rng.shuffle(order)
    inversions = sum(1 for i in range(m) for j in range(i + 1, m) if order[i] > order[j])
    c = rng.choice((1, 2, 3, -1, -2))
    gamma = _rand(rng, s, 2, 1, 2)
    s.define("vol", f"{c} * " + "^".join(f"d({x})" for x in s.names))
    s.define("gamma", s.poly(gamma))
    functions = []
    for i, lead in enumerate(order):
        later = order[i + 1:]
        f = qpoly.monomial(m, lead)
        if later:
            f = qpoly.add(f, _rand(rng, s, 2, 1, 2, later))
        s.define(f"F{i + 1}", s.poly(f))
        functions.append(f"F{i + 1}")
    value = qpoly.scale(gamma, Fraction(-1 if inversions % 2 else 1, c))
    s.task("nb", "nambu vol gamma " + " ".join(functions), s.poly(value))
    s.known["nb"] = s.poly(value)


def _power(rng, s):
    n, m = s.n, s.dim
    d1, d2 = POWER_DEGREES[n]
    s.define("omega", _standard_text(n))
    # a and b are sums of three coordinates plus 1 on disjoint coordinate
    # sets that split exactly one conjugate pair, so {a, b} = +-1 and every
    # seed expands polynomials of the same sizes
    j0, j1, j2 = rng.sample(range(n), 3)
    split = [j0, n + j0]
    rng.shuffle(split)
    bracket = 1 if split[0] >= n else -1  # {p_j, q_j} = 1
    a, b = qpoly.constant(m, 1), qpoly.constant(m, 1)
    for i in (split[0], j1, n + j1):
        a = qpoly.add(a, qpoly.monomial(m, i))
    for i in (split[1], j2, n + j2):
        b = qpoly.add(b, qpoly.monomial(m, i))
    a_text, b_text = s.poly(a, False), s.poly(b, False)
    s.task("pw", f"power-bracket omega k=1 ({a_text})^{d1} ({b_text})^{d2}",
           f"{d1 * d2 * bracket}*({a_text})^{d1 - 1}*({b_text})^{d2 - 1}")
    # expanded only when the result is checked, to keep set-up light
    s.known["pw"] = ("product", d1 * d2 * bracket, ((a, d1 - 1), (b, d2 - 1)))


def _vector_field(rng, s):
    return {i: _rand(rng, s, 2, 1, 2) for i in sorted(rng.sample(range(s.dim), 3))}


def _lie_bracket(x, y, dim):
    out = {}
    for j in range(dim):
        total = {}
        for i, xi in x.items():
            total = qpoly.add(total, qpoly.mul(xi, qpoly.diff(y.get(j, {}), i)))
        for i, yi in y.items():
            total = qpoly.add(total, qpoly.mul(yi, qpoly.diff(x.get(j, {}), i)), -1)
        if total:
            out[j] = total
    return out


def _structure(rng, s):
    n, m = s.n, s.dim
    q = (0, 1, 2)
    # redrawn until every component of B is nonzero, so that every seed
    # gives the magnetic form the same number of terms
    while True:
        a1, a2, a3 = (_rand(rng, s, 2, 3, 3, q) for _ in q)
        b1 = qpoly.add(qpoly.diff(a3, 1), qpoly.diff(a2, 2), -1)
        b2 = qpoly.add(qpoly.diff(a1, 2), qpoly.diff(a3, 0), -1)
        b3 = qpoly.add(qpoly.diff(a2, 0), qpoly.diff(a1, 1), -1)
        if b1 and b2 and b3:
            break
    magnetic = _standard_text(n)
    for sign, b, atoms in (("-", b3, "d(q1)^d(q2)"), ("+", b2, "d(q1)^d(q3)"), ("-", b1, "d(q2)^d(q3)")):
        magnetic += f" {sign} ({s.poly(b)}) * {atoms}"
    s.define("omega", _standard_text(n))
    s.define("omegaB", magnetic)
    for name in ("f", "g", "h"):
        s.define(name, s.poly(_rand(rng, s, 2, 1, 2)))
    x, y = _vector_field(rng, s), _vector_field(rng, s)
    s.define("X", _field_text(x, s.names))
    s.define("Y", _field_text(y, s.names))
    drift = _field_text({0: b1, 1: b2, 2: b3}, s.names)
    s.task("dv", "derived-vf omegaB k=2 p1 p2 p3", drift)
    s.known["dv"] = drift
    s.task("jac", "check-jacobi omegaB f g h", "0")
    s.known["jac"] = "0"
    s.task("poi", "check-poisson omegaB", "true")
    s.known["poi"] = "true"
    lie = _field_text(_lie_bracket(x, y, m), s.names)
    s.task("sch", "schouten X Y", lie)
    s.known["sch"] = lie
    s.task("dv3", "derived-vf omega k=3 p1 q1 p2 q2 p3", "e(q3)")
    s.known["dv3"] = "e(q3)"


def make_inputs(rng, blocks):
    scenarios = []
    for _ in range(blocks):
        for theme, n, pairs in SLOTS:
            s = _Text(n)
            if theme == "dirac":
                _dirac(rng, s, pairs)
            elif theme == "nambu":
                _nambu(rng, s)
            elif theme == "power":
                _power(rng, s)
            else:
                _structure(rng, s)
            label = f"{theme} dim={s.dim}" + (f" pairs={pairs}" if pairs else "")
            scenarios.append((theme, label, s.names, s.source(), s.known, s.zero, s.twins))
    return scenarios


def _top_level_terms(text):
    """Number of terms of ``text`` outside every bracket."""
    depth, count = 0, 1
    for position, char in enumerate(text):
        depth += {"(": 1, ")": -1}.get(char, 0)
        if depth == 0 and char in "+-" and text[position - 1:position + 2] == f" {char} ":
            count += 1
    return count


def describe(scenarios):
    """``(kind, size)`` of each op, read off its scenario text.

    The kind is the sequence of task commands.  The size is the chart
    dimension, the numbers of definitions, tasks and constraint functions,
    the top-level terms of all definitions, and the power-bracket exponents.
    """
    described = []
    for scenario in scenarios:
        sections = {}
        for line in scenario[3].splitlines():
            if line.startswith("["):
                body = sections.setdefault(line.strip("[]"), [])
            elif line:
                body.append(line)
        defines = [line.split(" = ", 1)[1] for line in sections["define"]]
        tasks = [line.split(" = ", 1)[1] for line in sections["tasks"]]
        constraints = sum(d.count(",") + 1 for d in defines if d.startswith("constraints("))
        powers = [e for t in tasks if t.startswith("power-bracket")
                  for e in re.findall(r"\)\^(\d+)", t.split(" expect ")[0])]
        described.append((
            " ".join(t.split()[0] for t in tasks),
            f"dim={len(sections['chart'][0].split())} defines={len(defines)} tasks={len(tasks)}"
            f" constraints={constraints} terms={sum(_top_level_terms(d) for d in defines)}"
            f" powers={','.join(powers) or '-'}",
        ))
    return described


def _expand(product, names):
    """Canonical text of ``("product", c, ((base, power), ...))``."""
    _, c, factors = product
    value = qpoly.constant(len(names), c)
    for base, power in factors:
        for _ in range(power):
            value = qpoly.mul(value, base)
    return qpoly.render(value, names)


def _op(fc, theme, label, names, source, known, zero, twins):
    def run():
        report = fc.cli.run_scenario(fc.parse_scenario_text(source))
        return report.exit_code, report.render(machine=True)

    def check(result):
        exit_code, text = result
        rows = {}
        for line in text.splitlines():
            name, _command, _args, status, value, _expected = line.split("\t")
            rows[name] = (status, value)
        expected_names = set(known) | set(zero) | {t for pair in twins for t in pair}
        if exit_code != 0 or set(rows) != expected_names:
            return False
        for name, value in known.items():
            if rows[name] != ("ok", value if isinstance(value, str) else _expand(value, names)):
                return False
        for name in zero:
            status, value = rows[name]
            if status != "ok" or not (value == "0" or value.startswith("(0) / (")):
                return False
        chart = fc.Chart(names)
        for form_task, matrix_task in twins:
            if rows[form_task][0] != "done" or rows[matrix_task][0] != "done":
                return False
            left, right = (fc.parse_value(rows[t][1], chart) for t in (form_task, matrix_task))
            as_rational = [v if isinstance(v, fc.RationalExpr) else fc.RationalExpr.from_polynomial(v)
                           for v in (left, right)]
            if as_rational[0] != as_rational[1]:
                return False
        return True

    return Op(theme, label, run, check, lambda result: result[1])


def build_ops(fc, scenarios):
    return [_op(fc, *scenario) for scenario in scenarios]
