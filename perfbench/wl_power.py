"""Workload ``power-brackets``: many bracket evaluations on two fixed structures.

The 8-dimensional Darboux chart carries the standard form and a closed
magnetic-type form (the standard form plus ``-q1 dq1^dq2 + q3 dq1^dq3 -
q2 dq2^dq3``).  Both structures, and one warm-up evaluation per power
index, are built during set-up, because a library user pays for them once.
The timed ops are ``omega_power_bracket`` for k = 1, 2, 3 and ``derived_vf``
for k = 2, 3 on seeded random polynomials, so wedge products of
differentials and polynomial multiplication do nearly all the work and the
matrix algebra none.

Oracle: ``omega_power_bracket(k, f1..f2k) == k! * Pf([{fi, fj}])`` with the
binary brackets taken as ``pair(dfj, hamiltonian_vf(fi))`` and the Pfaffian
expanded here; the e(x_i) component of ``derived_vf(k, f1..f2k-1)`` is the
Pfaffian with ``x_i`` as the last function.
"""

from __future__ import annotations

from math import factorial

import qpoly
from common import Op, darboux_names, pfaffian

N = 4
DIM = 2 * N

# One block runs every spec once on each form: (command, k, terms, min degree,
# max degree).  The mix and sizes are fixed; the seed only picks monomials
# and coefficients.  Sorted by cost the specs form separate bands: the cheap
# k=1 brackets (5 of 14), the k=2 4-term brackets around the median (4 of 14),
# two mid-cost ops, and the costly k=3 ops that hold the 90th percentile
# (3 of 14), so both percentiles fall inside one band for every seed.  The
# three k=3 specs cost about the same, so the 90th percentile sits in the
# middle of one band rather than between two.
SPECS = (
    ("bracket", 1, 4, 2, 2),
    ("bracket", 1, 3, 4, 4),
    ("bracket", 1, 4, 3, 3),
    ("bracket", 1, 6, 2, 2),
    ("bracket", 1, 5, 3, 3),
    ("bracket", 2, 4, 2, 2),
    ("bracket", 2, 4, 2, 2),
    ("bracket", 2, 4, 2, 2),
    ("bracket", 2, 4, 2, 2),
    ("bracket", 2, 6, 2, 2),
    ("derived_vf", 2, 4, 3, 3),
    ("bracket", 3, 4, 2, 2),
    ("derived_vf", 3, 3, 2, 2),
    ("derived_vf", 3, 3, 2, 2),
)
FORMS = ("standard", "magnetic")
OPS_PER_BLOCK = len(SPECS) * len(FORMS)
BLOCK_SECONDS = 0.95


def make_inputs(rng, blocks):
    slots = []
    for _ in range(blocks):
        for command, k, nterms, dmin, dmax in SPECS:
            for form in FORMS:
                arity = 2 * k if command == "bracket" else 2 * k - 1
                functions = [qpoly.rand_poly(rng, DIM, nterms, dmin, dmax) for _ in range(arity)]
                slots.append((command, form, k, (nterms, dmin, dmax), functions))
    return slots


def describe(slots):
    """``(kind, size)`` of each op, measured on its drawn functions."""
    described = []
    for command, form, k, _, functions in slots:
        degrees = [sum(exponent) for f in functions for exponent in f]
        terms = ",".join(str(len(f)) for f in functions)
        described.append((f"{command} k={k} form={form}",
                          f"args={len(functions)} terms={terms} deg={min(degrees)}-{max(degrees)}"))
    return described


def _structures(fc):
    chart = fc.Chart(darboux_names(N))
    q = fc.coordinates(chart)
    standard = fc.standard_form(chart)
    magnetic = standard + fc.Form(chart, 2, {(0, 1): -q[0], (0, 2): q[2], (1, 2): -q[1]})
    syms = {"standard": fc.SymplecticData(standard), "magnetic": fc.SymplecticData(magnetic)}
    for sym in syms.values():
        for k in range(1, 4):
            fc.omega_power_bracket(sym, k, *q[: 2 * k])
            if k > 1:
                fc.derived_vf(sym, k, *q[: 2 * k - 1])
    return chart, syms


class _Brackets:
    """Binary brackets of the op's functions by the Hamiltonian-field route.

    ``entry(a, b) == {fa, fb}``; ``coordinate(a, i) == {fa, x_i}``.
    """

    def __init__(self, fc, sym, functions):
        self.fc = fc
        self.sym = sym
        self.functions = functions
        self.fields = {}
        self.cache = {}

    def field(self, a):
        if a not in self.fields:
            self.fields[a] = self.fc.hamiltonian_vf(self.sym, self.functions[a])
        return self.fields[a]

    def entry(self, a, b):
        if (a, b) not in self.cache:
            dfb = self.fc.differential(self.functions[b])
            self.cache[(a, b)] = self.fc.pair(dfb, self.field(a))
        return self.cache[(a, b)]

    def coordinate(self, a, i):
        return self.field(a).coefficient((i,))


def _op(fc, chart, sym, command, form, k, size, functions):
    label = f"{command} k={k} terms={size[0]} deg={size[1]}-{size[2]} form={form}"
    one = fc.Polynomial.constant(chart, 1)
    indices = tuple(range(2 * k))

    if command == "bracket":
        def run():
            return fc.omega_power_bracket(sym, k, *functions)

        def check(result):
            brackets = _Brackets(fc, sym, functions)
            return result == pfaffian(indices, brackets.entry, one) * factorial(k)

        return Op(command, label, run, check)

    def run():
        return fc.derived_vf(sym, k, *functions)

    def check(result):
        if not isinstance(result, fc.Multivector) or result.grade != 1:
            return False
        brackets = _Brackets(fc, sym, functions)
        last = 2 * k - 1
        for i in range(DIM):
            def entry(a, b):
                return brackets.coordinate(a, i) if b == last else brackets.entry(a, b)

            if result.coefficient((i,)) != pfaffian(indices, entry, one):
                return False
        return True

    return Op(command, label, run, check)


def build_ops(fc, slots):
    chart, syms = _structures(fc)
    ops = []
    for command, form, k, size, functions in slots:
        polys = [fc.Polynomial(chart, f) for f in functions]
        ops.append(_op(fc, chart, syms[form], command, form, k, size, polys))
    return ops
