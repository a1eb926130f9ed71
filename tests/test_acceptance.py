"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

from formcalc import (
    BracketDef,
    Chart,
    ConstraintSet,
    Form,
    JacobiDef,
    Multivector,
    Polynomial,
    SymplecticData,
    bracket,
    calibrate_normalization,
    contract,
    coordinate_field,
    coordinates,
    darboux_chart,
    derived_vf,
    differential,
    dirac_bracket_form,
    dirac_bracket_matrix,
    form_power,
    hamiltonian_vf,
    homogenization_check,
    is_poisson,
    jacobi_pair_check,
    jacobiator,
    magnetic_form,
    omega_power_bracket,
    pair,
    parse_expr,
    poisson_bivector,
    schouten,
    schouten_volume_identity_check,
    standard_form,
    volume_poisson_criterion,
    wedge,
    wedge_all,
)
from formcalc.cli import main as cli_main

from tests.helpers import qp, rand_multivector, rand_poly

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


def report(criterion: int, message: str):
    print(f"criterion {criterion:2d} PASS - {message}")


def test_criterion_01_power_contraction_identity():
    for n in (1, 2, 3):
        chart = darboux_chart(n)
        omega = standard_form(chart)
        lam = poisson_bivector(omega)
        for k in range(1, n + 1):
            left = contract(lam, form_power(omega, k))
            right = form_power(omega, k - 1) * Fraction(k * (n - k + 1))
            assert left == right, (n, k)
    report(1, "i_L omega^k == k(n-k+1) omega^(k-1) for n=1..3, all k")


def test_criterion_02_pairing_volume_consistency():
    rng = random.Random(61)
    chart = Chart(("x1", "x2", "x3", "x4"))
    checked = 0
    while checked < 52:
        for k in (1, 2, 3, 4):
            lam = rand_multivector(rng, chart, k)
            volume = Form(chart, 4, {(0, 1, 2, 3): rand_poly(rng, chart)})
            if volume.is_zero():
                continue
            dfw = wedge_all([differential(rand_poly(rng, chart)) for _ in range(k)])
            assert pair(dfw, lam) * volume == wedge(dfw, contract(lam, volume))
            checked += 1
    report(2, f"<df..., L> * V == df... ^ i_L V on {checked} random instances, k=1..4")


def test_criterion_03_power_bracket_normalization():
    rng = random.Random(62)
    for n in (1, 2, 3):
        chart = darboux_chart(n)
        sym = SymplecticData(standard_form(chart))
        for k in range(1, n + 1):
            power = sym.bivector_power(k)
            alpha = sym.power(n - k) * Fraction(factorial(k), factorial(n - k))
            bdef = BracketDef(sym.volume(), alpha)
            assert bdef.generator == power
            assert schouten(power, power).is_zero()
            top = tuple(range(2 * n))
            scale = Fraction(1) / sym.volume().coefficient(top).constant_value()
            for _ in range(4):
                fs = [rand_poly(rng, chart) for _ in range(2 * k)]
                dfw = wedge_all([differential(f) for f in fs])
                via_pairing = pair(dfw, power)
                via_division = wedge(dfw, alpha).coefficient(top) * scale
                via_def = bracket(bdef, *fs)
                via_op = omega_power_bracket(sym, k, *fs)
                assert via_pairing == via_division == via_def == via_op
    report(3, "2k-brackets: generator, pairing and form-division routes agree, n<=3")


def _magnetic_cases(chart):
    qs, _ = qp(chart)
    constant = tuple(Polynomial.constant(chart, c) for c in (1, 2, 3))
    linear = (qs[1], qs[2], qs[0])
    return {"constant B": constant, "B = (q2,q3,q1)": linear}


def test_criterion_04_magnetic_example():
    chart = darboux_chart(3)
    qs, ps = qp(chart)
    omega0 = standard_form(chart)
    for label, b in _magnetic_cases(chart).items():
        omega_b = magnetic_form(chart, *b)
        assert form_power(omega_b, 3) == form_power(omega0, 3), label
        sym = SymplecticData(omega_b)
        for i in range(3):
            for j in range(3):
                assert omega_power_bracket(sym, 1, qs[i], qs[j]).is_zero(), label
                expected = Polynomial.constant(chart, 1 if i == j else 0)
                assert omega_power_bracket(sym, 1, ps[i], ps[j]) == (
                    b[2] if (i, j) == (0, 1) else
                    -b[2] if (i, j) == (1, 0) else
                    b[0] if (i, j) == (1, 2) else
                    -b[0] if (i, j) == (2, 1) else
                    b[1] if (i, j) == (2, 0) else
                    -b[1] if (i, j) == (0, 2) else
                    Polynomial.zero(chart)
                ), label
                assert omega_power_bracket(sym, 1, ps[i], qs[j]) == expected, label
        drift = derived_vf(sym, 2, ps[0], ps[1], ps[2])
        assert drift == Multivector(chart, 1, {(0,): b[0], (1,): b[1], (2,): b[2]}), label
    assert derived_vf(SymplecticData(omega0), 2, ps[0], ps[1], ps[2]).is_zero()
    report(4, "field brackets, drift field and volume collapse on both magnetic charts")


def test_criterion_05_jacobi_iff_divergence_free():
    chart = darboux_chart(3)
    qs, ps = qp(chart)
    zero = Polynomial.zero(chart)
    closed = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
    assert is_poisson(closed.bivector)
    rng = random.Random(63)
    for _ in range(10):
        f, g, h = (rand_poly(rng, chart) for _ in range(3))
        assert jacobiator(closed, f, g, h).is_zero()
    omega_open = magnetic_form(chart, qs[0], zero, zero)
    assert not is_poisson(poisson_bivector(omega_open))
    volume = form_power(omega_open, 3) * Fraction(1, 6)
    alpha = form_power(omega_open, 2) * Fraction(1, 2)
    witness = jacobiator(BracketDef(volume, alpha), ps[0], ps[1], ps[2])
    assert witness == Polynomial.constant(chart, 1)  # +div B for B = (q1,0,0)
    report(5, "jacobiator vanishes iff div B = 0; witness value equals +div B")


def test_criterion_06_three_function_field_expansion():
    rng = random.Random(64)
    for n in (2, 3):
        chart = darboux_chart(n)
        sym = SymplecticData(standard_form(chart))
        for _ in range(20):
            f1, f2, f3 = (rand_poly(rng, chart) for _ in range(3))
            left = derived_vf(sym, 2, f1, f2, f3)
            pb = lambda a, b: omega_power_bracket(sym, 1, a, b)
            right = (
                hamiltonian_vf(sym, f3) * pb(f1, f2)
                + hamiltonian_vf(sym, f1) * pb(f2, f3)
                + hamiltonian_vf(sym, f2) * pb(f3, f1)
            )
            assert left == right, n
    report(6, "X_{f1,f2,f3} expansion holds on 20 random triples for n=2 and n=3")


def test_criterion_07_angular_momentum_casimir():
    chart = darboux_chart(3)
    q1, q2, q3, p1, p2, p3 = coordinates(chart)
    sym = SymplecticData(standard_form(chart))
    j1 = q2 * p3 - q3 * p2
    j2 = q3 * p1 - q1 * p3
    j3 = q1 * p2 - q2 * p1
    invariant = j1 * j1 + j2 * j2 + j3 * j3
    derived = derived_vf(sym, 2, j1, j2, j3)
    casimir_field = hamiltonian_vf(sym, invariant)
    assert not derived.is_zero()
    # brute-force the constant from matching components
    constant = None
    for key, value in derived.terms.items():
        other = casimir_field.terms.get(key)
        if other is None:
            continue
        for exponent, c in value.terms.items():
            oc = other.terms.get(exponent)
            if oc:
                constant = c / oc
                break
        if constant is not None:
            break
    assert constant is not None
    assert derived == casimir_field * constant
    assert abs(constant) == Fraction(1, 2)
    report(7, f"X_(J1,J2,J3) == {constant} * X_C exactly")


def test_criterion_08_dirac_pipelines():
    rng = random.Random(65)
    grid = [(2, 1), (3, 1), (3, 2)]
    constants = {}
    for n, k in grid:
        chart = darboux_chart(n)
        sym = SymplecticData(standard_form(chart))
        qs, ps = qp(sym.chart)
        thetas = []
        for j in range(n - k, n):
            thetas.extend([qs[j], ps[j]])
        cs = ConstraintSet(sym, thetas)
        constants[(n, k)] = calibrate_normalization(cs)
        assert constants[(n, k)] == Fraction(1, n - k)
        for _ in range(20):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            assert dirac_bracket_form(cs, f, g) == dirac_bracket_matrix(cs, f, g)
        for theta in cs.constraints:
            for _ in range(4):
                g = rand_poly(rng, chart)
                assert dirac_bracket_matrix(cs, theta, g).is_zero()
                assert dirac_bracket_form(cs, theta, g).is_zero()
    # canonical reduction agrees with the plain bracket on the reduced chart
    for n, keep in ((2, 1), (3, 1)):
        sym = SymplecticData(standard_form(darboux_chart(n)))
        qs, ps = qp(sym.chart)
        thetas = []
        for j in range(keep, n):
            thetas.extend([qs[j], ps[j]])
        cs = ConstraintSet(sym, thetas)
        reduced = SymplecticData(standard_form(darboux_chart(keep)))
        for left_text, right_text in (("p1", "q1"), ("q1^2 - p1", "q1*p1")):
            big = dirac_bracket_matrix(
                cs, parse_expr(left_text, sym.chart), parse_expr(right_text, sym.chart)
            ).as_polynomial()
            small = omega_power_bracket(
                reduced, 1, parse_expr(left_text, reduced.chart), parse_expr(right_text, reduced.chart)
            )
            assert str(big) == str(small)
    # ordinary Jacobi identity when the constraint determinant is constant
    sym = SymplecticData(standard_form(darboux_chart(2)))
    qs, ps = qp(sym.chart)
    cs = ConstraintSet(sym, [qs[1], ps[1]])
    assert cs.determinant.is_constant()
    for _ in range(8):
        f, g, h = (rand_poly(rng, sym.chart) for _ in range(3))
        db = lambda a, b: dirac_bracket_matrix(cs, a, b).as_polynomial()
        assert (db(f, db(g, h)) + db(g, db(h, f)) + db(h, db(f, g))).is_zero()
    pretty = ", ".join(f"c({n},{k})={constants[(n, k)]}" for n, k in grid)
    report(8, f"pipelines agree, c = 1/(n-k): {pretty}; Casimirs, reduction, Jacobi")


def test_criterion_09_jacobi_manifold_contact_pair():
    chart = Chart(("x", "y", "z"))
    y = Polynomial.variable(chart, "y")
    lam = Multivector(chart, 2, {(0, 1): 1, (1, 2): -y})  # (e(x) + y e(z)) ^ e(y)
    field = coordinate_field(chart, "z")
    assert jacobi_pair_check(lam, field)
    jdef = JacobiDef(lam, field)
    assert jdef.is_jacobi
    rng = random.Random(66)
    for _ in range(20):
        f, g, h = (rand_poly(rng, chart) for _ in range(3))
        assert jacobiator(jdef, f, g, h).is_zero()
    for _ in range(20):
        f, g = rand_poly(rng, chart), rand_poly(rng, chart)
        assert homogenization_check(jdef, f, g)
    report(9, "contact pair passes; bracket satisfies Jacobi; homogenization holds")


def test_criterion_10_volume_criteria():
    rng = random.Random(67)
    chart = Chart(("x1", "x2", "x3", "x4"))
    volume = Form(chart, 4, {(0, 1, 2, 3): Fraction(1)})
    for _ in range(30):
        lam = rand_multivector(rng, chart, 2)
        assert volume_poisson_criterion(lam, volume) == is_poisson(lam)
    for _ in range(30):
        l1 = rand_multivector(rng, chart, 2)
        l2 = rand_multivector(rng, chart, 2)
        assert schouten_volume_identity_check(l1, l2, volume)
    report(10, "volume criterion matches self-commutation (30x); bracket identity (30x)")


def test_criterion_11_derived_field_not_a_derivation():
    chart = darboux_chart(3)
    qs, ps = qp(chart)
    sym = SymplecticData(magnetic_form(chart, qs[1], qs[2], qs[0]))
    drift = derived_vf(sym, 2, ps[0], ps[1], ps[2])
    pb = lambda a, b: omega_power_bracket(sym, 1, a, b)
    act = lambda h: pair(differential(h), drift)
    f, g = ps[1], ps[2]
    left = act(pb(f, g))
    right = pb(act(f), g) + pb(f, act(g))
    assert left != right
    assert left == qs[2] and right.is_zero()
    report(11, "witness f=p2, g=p3: X(fg-bracket) = q3 but the Leibniz split is 0")


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_12_cli_golden_reports():
    for name in ("magnetic", "divergence", "dirac"):
        path = str(SCENARIOS / f"{name}.scn")
        code, out = _run_cli(["run", path])
        assert code == 0, name
        assert out == (GOLDEN / f"{name}.report.txt").read_text(), name
        code, out = _run_cli(["run", path, "--machine"])
        assert code == 0, name
        assert out == (GOLDEN / f"{name}.machine.txt").read_text(), name
    # exit-code contract: 1 on mismatch, 2 on parse errors
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.scn"
        bad.write_text(
            "[chart]\nq1 p1\n\n[define]\nomega = d(p1)^d(q1)\n\n"
            "[tasks]\nt = power-bracket omega k=1 p1 q1 expect 7\n"
        )
        code, _ = _run_cli(["run", str(bad)])
        assert code == 1
        broken = Path(tmp) / "broken.scn"
        broken.write_text("[tasks]\nt = bogus\n")
        code, _ = _run_cli(["run", str(broken)])
        assert code == 2
    report(12, "golden reports byte-identical for all three scenarios; exit codes 0/1/2")
