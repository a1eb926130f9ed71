"""Workload ``dense-symplectic``: SymplecticData builds from dense constant forms.

Each op builds one ``SymplecticData`` from a seeded constant skew form whose
upper-triangle entries are all nonzero integers in -4..4, so every instance
of a dimension does the same amount of work.  Constant coefficients make the
tensor layer idle; ``poisson_bivector``'s Laplace-expansion determinant and
adjugate dominate.  Most forms are 6-dimensional, some 8- and a few
10-dimensional.

Oracle: the generator inverts the coefficient matrix by Fraction
Gauss-Jordan elimination (redrawing singular ones), and every bivector entry
``(i, j)`` must equal ``-inverse[i][j]``.
"""

from __future__ import annotations

from fractions import Fraction

from common import Op

# (chart dimension, ops per block).  The 8-dim builds, a sixth of the ops,
# hold the 90th percentile; the 10-dim build is the rare, costly case.
MIX = ((6, 40), (8, 8), (10, 1))
OPS_PER_BLOCK = sum(count for _, count in MIX)
BLOCK_SECONDS = 5.9
ENTRIES = (-4, -3, -2, -1, 1, 2, 3, 4)


def _inverse(matrix):
    """Fraction Gauss-Jordan inverse, or ``None`` for a singular matrix."""
    m = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[m:] for row in rows]


def _draw(rng, m):
    while True:
        upper = {(i, j): rng.choice(ENTRIES) for i in range(m) for j in range(i + 1, m)}
        matrix = [[0] * m for _ in range(m)]
        for (i, j), c in upper.items():
            matrix[i][j] = c
            matrix[j][i] = -c
        inverse = _inverse(matrix)
        if inverse is not None:
            return upper, inverse


def make_inputs(rng, blocks):
    return [(m, *_draw(rng, m)) for _ in range(blocks) for m, count in MIX for _ in range(count)]


def describe(inputs):
    """``(kind, size)`` of each op, measured on its drawn form."""
    return [("symplectic", f"dim={len(inverse)} nonzero={sum(1 for c in upper.values() if c)}")
            for _, upper, inverse in inputs]


def _op(fc, m, upper, inverse):
    chart = fc.Chart([f"x{i}" for i in range(1, m + 1)])
    omega = fc.Form(chart, 2, {key: Fraction(c) for key, c in upper.items()})

    def run():
        return fc.SymplecticData(omega)

    def check(sym):
        terms = sym.bivector.terms
        if sym.bivector.grade != 2 or any(not i < j for i, j in terms):
            return False
        for i in range(m):
            for j in range(i + 1, m):
                value = terms.get((i, j))
                expected = -inverse[i][j]
                if value is None:
                    if expected:
                        return False
                elif not value.is_constant() or value.constant_value() != expected:
                    return False
        return True

    return Op("symplectic", f"dim={m}", run, check, lambda sym: str(sym.bivector))


def build_ops(fc, inputs):
    return [_op(fc, m, upper, inverse) for m, upper, inverse in inputs]
