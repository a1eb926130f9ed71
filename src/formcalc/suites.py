"""Built-in identity suites runnable from the CLI.

Each suite re-derives a family of exact identities from scratch and returns
``(ok, detail)``.  Random instances use fixed seeds so reports stay
byte-identical run to run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, cycle
from math import factorial
from typing import Callable

from .brackets import (
    bracket,
    derived_vf,
    hamiltonian_vf,
    jacobiator,
    omega_power_bracket,
    power_bracket_def,
)
from .chart import Chart
from .errors import InvalidArgument, checked
from .exterior import (
    Form,
    Multivector,
    SymplecticData,
    contract,
    differential,
    form_power,
    pair,
    standard_form,
    wedge,
    wedge_all,
)
from .poly import Polynomial, coordinates
from .schouten import (
    is_poisson,
    schouten,
    schouten_volume_identity_check,
    volume_poisson_criterion,
)


def darboux_chart(n: int) -> Chart:
    """Chart ``(q1..qn, p1..pn)``."""
    checked(n, int, "Darboux chart size")
    return Chart([f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)])


def magnetic_form(chart: Chart, b1: Polynomial, b2: Polynomial, b3: Polynomial) -> Form:
    """The standard form plus a field-strength term on the first three coordinates.

    Oriented so that the induced binary bracket gives ``{p1,p2} = b3``,
    ``{p2,p3} = b1`` and ``{p3,p1} = b2`` with ``{p_i, q_j}`` unchanged.
    """
    if checked(chart, Chart, "magnetic chart").dim != 6:
        raise InvalidArgument("the magnetic example lives on a 6-dimensional chart")
    # the reversed pairs carry the minus signs, so Form checks each b_i as given
    beta = Form(chart, 2, {(1, 0): b3, (0, 2): b2, (2, 1): b1})
    return standard_form(chart) + beta


def _random_poly(rng: random.Random, chart: Chart, degree: int = 2, nterms: int = 3,
                 span: int = 2) -> Polynomial:
    """``nterms`` draws of a monomial of degree at most ``degree`` with an
    integer coefficient in ``-span..span``; like terms are merged."""
    terms: dict = {}
    for _ in range(nterms):
        exponent = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            exponent[rng.randrange(chart.dim)] += 1
        c = rng.randint(-span, span)
        if c:
            key = tuple(exponent)
            terms[key] = terms.get(key, 0) + c
    return Polynomial(chart, {k: Fraction(v) for k, v in terms.items() if v})


def _random_graded(cls, rng: random.Random, chart: Chart, grade: int, density: float = 0.6,
                   span: int = 2):
    """A ``Form`` or ``Multivector`` (``cls``) whose index tuples each get a
    :func:`_random_poly` coefficient with probability ``density``."""
    table = {}
    for key in combinations(range(chart.dim), grade):
        if rng.random() < density:
            p = _random_poly(rng, chart, span=span)
            if not p.is_zero():
                table[key] = p
    return cls(chart, grade, table)


def suite_power_contraction(n: int | None) -> tuple[bool, str]:
    """``i_L omega^k == k(n-k+1) omega^{k-1}`` for the standard pair, k = 1..n."""
    top = 3 if n is None else n
    for nn in range(1, top + 1):
        sym = SymplecticData(standard_form(darboux_chart(nn)))
        for k in range(1, nn + 1):
            left = contract(sym.bivector, sym.power(k))
            right = sym.power(k - 1) * Fraction(k * (nn - k + 1))
            if left != right:
                return False, f"failed at n={nn}, k={k}"
    return True, f"checked n=1..{top}, all k"


def suite_pairing_consistency(n: int | None) -> tuple[bool, str]:
    """``<df1^...^dfk, L> * V == df1^...^dfk ^ i_L V`` on random instances."""
    count = 55 if n is None else n
    rng = random.Random(90125)
    chart = Chart(("x1", "x2", "x3", "x4"))
    checked = 0
    grades = cycle(range(1, 5))
    while checked < count:
        k = next(grades)
        lam = _random_graded(Multivector, rng, chart, k)
        volume = Form(chart, 4, {(0, 1, 2, 3): _random_poly(rng, chart)})
        if volume.is_zero():
            continue
        dfw = wedge_all([differential(_random_poly(rng, chart)) for _ in range(k)])
        if pair(dfw, lam) * volume != wedge(dfw, contract(lam, volume)):
            return False, f"failed at instance {checked}, k={k}"
        checked += 1
    return True, f"checked {checked} random instances, k=1..4"


def suite_power_bracket(n: int | None) -> tuple[bool, str]:
    """Wedge-power generators, and the volume, divided-power, pairing,
    form-division and derived-field routes to the 2k-brackets, on standard
    forms and on a magnetic form with a polynomial field."""
    top = 3 if n is None else n
    rng = random.Random(42424)
    chart = darboux_chart(3)
    q1, q2, q3 = coordinates(chart)[:3]
    cases = [(f"n={nn}", standard_form(darboux_chart(nn))) for nn in range(1, top + 1)]
    field = (q2 * q3 + q2 * q2, q1 * q3 - q2, q3 + q1 * q2)  # divergence-free: the form is closed
    cases.append(("the magnetic form", magnetic_form(chart, *field)))
    for label, omega in cases:
        sym = SymplecticData(omega)
        full = tuple(range(sym.chart.dim))
        for k in range(1, sym.n + 1):
            bdef = power_bracket_def(sym, k)
            power = sym.bivector_power(k)
            if bdef.generator != power:
                return False, f"generator mismatch at {label}, k={k}"
            if not schouten(power, power).is_zero():
                return False, f"wedge power does not self-commute at {label}, k={k}"
            scale = Fraction(1) / bdef.volume.coefficient(full).constant_value()
            for _ in range(3):
                fs = [_random_poly(rng, sym.chart) for _ in range(2 * k)]
                dfw = wedge_all([differential(f) for f in fs])
                via_def = bracket(bdef, *fs)
                via_power = omega_power_bracket(sym, k, *fs)
                via_pairing = pair(dfw, power)
                via_division = wedge(dfw, bdef.alpha).coefficient(full) * scale
                via_field = pair(differential(fs[-1]), derived_vf(sym, k, *fs[:-1])) * factorial(k)
                if not (via_def == via_power == via_pairing == via_division == via_field):
                    return False, f"route mismatch at {label}, k={k}"
    return True, f"checked n=1..{top} and a magnetic form, all k, generators and routes"


def suite_volume_poisson(n: int | None) -> tuple[bool, str]:
    """Volume criterion agrees with bracket self-commutation on random bivectors."""
    count = 30 if n is None else n
    rng = random.Random(777)
    chart = Chart(("x1", "x2", "x3", "x4"))
    volume = Form(chart, 4, {(0, 1, 2, 3): Fraction(1)})
    agree = 0
    for _ in range(count):
        lam = _random_graded(Multivector, rng, chart, 2)
        if volume_poisson_criterion(lam, volume) != is_poisson(lam):
            return False, "criterion disagreed with self-commutation"
        agree += 1
    return True, f"agreed on {agree} random bivectors"


def suite_schouten_volume(n: int | None) -> tuple[bool, str]:
    """Bracket-contraction identity on random bivector pairs."""
    count = 30 if n is None else n
    rng = random.Random(1618)
    chart = Chart(("x1", "x2", "x3", "x4"))
    volume = Form(chart, 4, {(0, 1, 2, 3): Fraction(1)})
    for i in range(count):
        l1 = _random_graded(Multivector, rng, chart, 2)
        l2 = _random_graded(Multivector, rng, chart, 2)
        if not schouten_volume_identity_check(l1, l2, volume):
            return False, f"identity failed at instance {i}"
    return True, f"checked {count} random bivector pairs"


def suite_magnetic(n: int | None) -> tuple[bool, str]:
    """The charged-particle chart: brackets, derived field, volume collapse."""
    chart = darboux_chart(3)
    q1, q2, q3, p1, p2, p3 = coordinates(chart)
    omega0 = standard_form(chart)
    cases = {
        "linear": (q2, q3, q1),
        "constant": tuple(Polynomial.constant(chart, c) for c in (1, 2, 3)),
    }
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}  # {p_i, p_j} -> index of B component
    for label, b in cases.items():
        omega_b = magnetic_form(chart, *b)
        if form_power(omega_b, 3) != form_power(omega0, 3):
            return False, f"[{label}] cubes differ"
        sym = SymplecticData(omega_b)
        ps = [p1, p2, p3]
        qs = [q1, q2, q3]
        for (i, j), bidx in eps.items():
            if omega_power_bracket(sym, 1, ps[i], ps[j]) != b[bidx]:
                return False, f"[{label}] momentum bracket mismatch at {(i, j)}"
        for i in range(3):
            for j in range(3):
                expected = Fraction(1 if i == j else 0)
                if omega_power_bracket(sym, 1, ps[i], qs[j]) != Polynomial.constant(chart, expected):
                    return False, f"[{label}] {{p,q}} mismatch at {(i, j)}"
                if not omega_power_bracket(sym, 1, qs[i], qs[j]).is_zero():
                    return False, f"[{label}] {{q,q}} nonzero at {(i, j)}"
        x = derived_vf(sym, 2, p1, p2, p3)
        expected_field = Multivector(chart, 1, {(0,): b[0], (1,): b[1], (2,): b[2]})
        if x != expected_field:
            return False, f"[{label}] derived field mismatch"
        if not jacobiator(sym, p1, p2, p3).is_zero():
            return False, f"[{label}] jacobiator nonzero"
    sym0 = SymplecticData(omega0)
    if not derived_vf(sym0, 2, p1, p2, p3).is_zero():
        return False, "derived field does not vanish for the standard form"
    return True, "linear and constant field cases all reproduced"


def suite_angular_momentum(n: int | None) -> tuple[bool, str]:
    """Derived field of the angular-momentum triple is proportional to the
    Hamiltonian field of the squared-norm invariant."""
    chart = darboux_chart(3)
    q1, q2, q3, p1, p2, p3 = coordinates(chart)
    sym = SymplecticData(standard_form(chart))
    j1 = q2 * p3 - q3 * p2
    j2 = q3 * p1 - q1 * p3
    j3 = q1 * p2 - q2 * p1
    invariant = j1 * j1 + j2 * j2 + j3 * j3
    derived = derived_vf(sym, 2, j1, j2, j3)
    casimir_field = hamiltonian_vf(sym, invariant)
    constant = None
    for key, value in derived.terms.items():
        other = casimir_field.terms.get(key)
        if other is None:
            continue
        for exponent, c in value.items():
            oc = other.coefficient(exponent)
            if oc:
                constant = c / oc
                break
        if constant is not None:
            break
    if constant is None:
        return False, "no matching component found"
    if derived != casimir_field * constant:
        return False, "fields are not exactly proportional"
    return True, f"proportional with constant {constant}"


SUITES: dict[str, Callable[[int | None], tuple[bool, str]]] = {
    "power-contraction": suite_power_contraction,
    "pairing-consistency": suite_pairing_consistency,
    "power-bracket": suite_power_bracket,
    "volume-poisson": suite_volume_poisson,
    "schouten-volume": suite_schouten_volume,
    "magnetic": suite_magnetic,
    "angular-momentum": suite_angular_momentum,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def _suite_size(n: int | None) -> int | None:
    """``n``, if it is ``None`` (each suite's own size) or at least 1."""
    if n is not None and checked(n, int, "suite size") < 1:
        raise InvalidArgument(f"suite size must be at least 1, got {n}")
    return n


def run_suite(name: str, n: int | None = None) -> tuple[bool, str]:
    try:
        suite = SUITES[checked(name, str, "suite name")]
    except KeyError:
        raise InvalidArgument(f"unknown suite {name!r}; available: {', '.join(suite_names())}") from None
    return suite(_suite_size(n))
