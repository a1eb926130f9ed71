"""Coordinate splitting, seeded random generators and reference algorithms
for the test suite.

The generators are the built-in suites' own, drawing coefficients from
-3..3 instead of the suites' -2..2.  ``laplace_determinant`` and
``laplace_adjugate`` are plain cofactor expansion, one independent
determinant per cofactor: the reference that the property tests hold
``formcalc.poly.matrix_determinant`` and ``matrix_adjugate`` to.
"""

from typing import Sequence

from formcalc import Chart, Form, Multivector, Polynomial
from formcalc.suites import _random_graded, _random_poly


def qp(chart: Chart):
    """Coordinates of a darboux chart, split into (qs, ps)."""
    n = chart.dim // 2
    qs = [Polynomial.variable(chart, chart.names[i]) for i in range(n)]
    ps = [Polynomial.variable(chart, chart.names[n + i]) for i in range(n)]
    return qs, ps


def rand_poly(rng, chart, degree=2, nterms=3, span=3) -> Polynomial:
    return _random_poly(rng, chart, degree, nterms, span)


def rand_nonzero_poly(rng, chart, **kwargs) -> Polynomial:
    while True:
        p = rand_poly(rng, chart, **kwargs)
        if not p.is_zero():
            return p


def rand_form(rng, chart, grade, density=0.6) -> Form:
    return _random_graded(Form, rng, chart, grade, density, span=3)


def rand_multivector(rng, chart, grade, density=0.6) -> Multivector:
    return _random_graded(Multivector, rng, chart, grade, density, span=3)


def laplace_determinant(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> Polynomial:
    """Determinant of a square matrix of polynomials, by memoized expansion."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    one = Polynomial.constant(chart, 1)
    memo: dict[tuple[int, tuple[int, ...]], Polynomial] = {}

    def expand(r: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return one
        key = (r, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = Polynomial.zero(chart)
        for j, col in enumerate(cols):
            entry = rows[r][col]
            if entry.is_zero():
                continue
            sub = expand(r + 1, cols[:j] + cols[j + 1:])
            term = entry * sub
            total = total + term if j % 2 == 0 else total - term
        memo[key] = total
        return total

    return expand(0, tuple(range(n)))


def laplace_adjugate(rows: Sequence[Sequence[Polynomial]], chart: Chart) -> list[list[Polynomial]]:
    """Classical adjugate from ``m^2`` independent cofactor determinants."""
    n = len(rows)
    if n == 1:
        return [[Polynomial.constant(chart, 1)]]
    adj = [[Polynomial.zero(chart) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cofactor = laplace_determinant(minor, chart)
            if (i + j) % 2:
                cofactor = -cofactor
            adj[j][i] = cofactor
    return adj
