"""Plain-dict polynomials for the benchmark's input generators and oracles.

A polynomial is a ``dict`` from exponent tuples to nonzero ``Fraction``
coefficients.  This module never imports formcalc: the generators use it to
draw inputs and to work out expected values by a route of their own, and
:func:`render` turns a polynomial into formcalc's expression syntax.
"""

from __future__ import annotations

from fractions import Fraction

COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def rand_poly(rng, dim, nterms, dmin, dmax, variables=None):
    """Exactly ``nterms`` distinct monomials of total degree ``dmin..dmax``.

    Monomials use only the coordinate indices in ``variables`` (all of them
    by default); coefficients are drawn from ``COEFFICIENTS``.
    """
    variables = tuple(range(dim)) if variables is None else tuple(variables)
    terms = {}
    while len(terms) < nterms:
        exponent = [0] * dim
        for _ in range(rng.randint(dmin, dmax)):
            exponent[rng.choice(variables)] += 1
        key = tuple(exponent)
        if key not in terms:
            terms[key] = Fraction(rng.choice(COEFFICIENTS))
    return terms


def add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        total = out.get(e, 0) + scale * c
        if total:
            out[e] = Fraction(total)
        else:
            out.pop(e, None)
    return out


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            total = out.get(e, 0) + ca * cb
            if total:
                out[e] = total
            else:
                out.pop(e, None)
    return out


def scale(a, factor):
    factor = Fraction(factor)
    return {e: c * factor for e, c in a.items()} if factor else {}


def diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[lowered] = out.get(lowered, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def monomial(dim, i, coefficient=1):
    exponent = [0] * dim
    exponent[i] = 1
    return {tuple(exponent): Fraction(coefficient)}


def constant(dim, value):
    return {(0,) * dim: Fraction(value)} if value else {}


def render(p, names, spaced=True):
    """Text in formcalc's expression grammar; ``spaced=False`` gives one token."""
    if not p:
        return "0"
    joiner = " {} " if spaced else "{}"
    pieces = []
    for exponent in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p[exponent]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponent) if e]
        magnitude = abs(c)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += joiner.format(sign) + body
    return text
