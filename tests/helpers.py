"""Coordinate splitting and seeded random generators for the test suite."""

from fractions import Fraction
from itertools import combinations

from formcalc import Chart, Form, Multivector, Polynomial


def qp(chart: Chart):
    """Coordinates of a darboux chart, split into (qs, ps)."""
    n = chart.dim // 2
    qs = [Polynomial.variable(chart, chart.names[i]) for i in range(n)]
    ps = [Polynomial.variable(chart, chart.names[n + i]) for i in range(n)]
    return qs, ps


def rand_poly(rng, chart, degree=2, nterms=3, span=3) -> Polynomial:
    terms = {}
    for _ in range(nterms):
        exponent = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            exponent[rng.randrange(chart.dim)] += 1
        c = rng.randint(-span, span)
        if c:
            key = tuple(exponent)
            terms[key] = terms.get(key, 0) + c
    return Polynomial(chart, {k: Fraction(v) for k, v in terms.items() if v})


def rand_nonzero_poly(rng, chart, **kwargs) -> Polynomial:
    while True:
        p = rand_poly(rng, chart, **kwargs)
        if not p.is_zero():
            return p


def _rand_graded(cls, rng, chart, grade, density):
    table = {}
    for key in combinations(range(chart.dim), grade):
        if rng.random() < density:
            p = rand_poly(rng, chart)
            if not p.is_zero():
                table[key] = p
    return cls(chart, grade, table)


def rand_form(rng, chart, grade, density=0.6) -> Form:
    return _rand_graded(Form, rng, chart, grade, density)


def rand_multivector(rng, chart, grade, density=0.6) -> Multivector:
    return _rand_graded(Multivector, rng, chart, grade, density)
