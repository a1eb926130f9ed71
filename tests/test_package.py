"""The public API: what the star import exports, and the argument contract of
every public callable -- each call ends in a result or an ``AlgebraError``."""

import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import formcalc
from formcalc import (
    AlgebraError,
    BracketDef,
    Chart,
    ChartMismatch,
    ConstraintSet,
    DegreeOverflow,
    DivisionByZero,
    Form,
    InvalidArgument,
    JacobiDef,
    KindMismatch,
    Multivector,
    Polynomial,
    RationalExpr,
    SymplecticData,
    coordinate_field,
    coordinate_form,
    coordinates,
    darboux_chart,
    exact_divide,
    form_power,
    parse_scenario_text,
    parse_value,
    standard_form,
    wedge,
)


def test_star_import_exports_exactly_all():
    # a stale __all__ entry would otherwise surface only at a user's star import
    namespace = {}
    exec("from formcalc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(formcalc.__all__)
    assert len(formcalc.__all__) == len(set(formcalc.__all__))
    assert all(namespace[name] is getattr(formcalc, name) for name in formcalc.__all__)
    assert "ExpPoly" not in namespace


SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "dirac.scn"
C = darboux_chart(2)
q1, q2, p1, p2 = coordinates(C)
ZERO = Polynomial.zero(C)
OMEGA = standard_form(C)
SYM = SymplecticData(OMEGA)
VOLUME = SYM.volume()
BIVECTOR = SYM.bivector
FIELD = coordinate_field(C, "q1")
DQ1, DP1 = coordinate_form(C, "q1"), coordinate_form(C, "p1")
CS = ConstraintSet(SYM, [q2, p2])
JDEF = JacobiDef(BIVECTOR, Multivector.zero(C, 1))
C3 = darboux_chart(3)
Q3 = coordinates(C3)
FOREIGN = coordinates(darboux_chart(1))[0]

# every public callable -> the arguments of one call that ends in a result
VALID = {
    "BracketDef": lambda: (VOLUME, OMEGA),
    "Chart": lambda: (("x", "y"),),
    "ConstraintSet": lambda: (SYM, [q2, p2]),
    "Form": lambda: (C, 1, {(0,): q1}),
    "JacobiDef": lambda: (BIVECTOR, Multivector.zero(C, 1)),
    "Multivector": lambda: (C, 1, {(0,): q1}),
    "Polynomial": lambda: (C, {(1, 0, 0, 0): 1}),
    "RationalExpr": lambda: (q1, p1),
    "Scenario": lambda: (C, {}, []),
    "SymplecticData": lambda: (OMEGA,),
    "bracket": lambda: (BracketDef(VOLUME, OMEGA), q1, p1),
    "calibrate_normalization": lambda: (CS,),
    "contract": lambda: (FIELD, OMEGA),
    "coordinate_field": lambda: (C, "q1"),
    "coordinate_form": lambda: (C, "q1"),
    "coordinates": lambda: (C,),
    "darboux_chart": lambda: (2,),
    "derived_vf": lambda: (SYM, 1, q1),
    "differential": lambda: (q1,),
    "dirac_bracket_form": lambda: (CS, q1, p1),
    "dirac_bracket_matrix": lambda: (CS, q1, p1),
    "exact_divide": lambda: (q1 * p1, p1),
    "exterior_derivative": lambda: (DQ1 * p1,),
    "form_power": lambda: (OMEGA, 2),
    "hamiltonian_vf": lambda: (SYM, q1),
    "homogenization_check": lambda: (JDEF, q1, p1),
    "is_n_poisson": lambda: (BIVECTOR,),
    "is_poisson": lambda: (BIVECTOR,),
    "jacobi_bracket": lambda: (JDEF, q1, p1),
    "jacobi_pair_check": lambda: (BIVECTOR, Multivector.zero(C, 1)),
    "jacobiator": lambda: (SYM, q1, p1, q2),
    "lie_derivative": lambda: (FIELD, OMEGA),
    "magnetic_form": lambda: (C3, Q3[1], Q3[2], Q3[0]),
    "matrix_adjugate": lambda: ([[ZERO, q1], [-q1, ZERO]], C),
    "matrix_determinant": lambda: ([[ZERO, q1], [-q1, ZERO]], C),
    "mv_from_form": lambda: (VOLUME, OMEGA),
    "nambu_top_bracket": lambda: (VOLUME, q1, q1, q2, p1, p2),
    "omega_power_bracket": lambda: (SYM, 1, q1, p1),
    "pair": lambda: (OMEGA, BIVECTOR),
    "parse_expr": lambda: ("q1 + f", C, {"f": p1}),
    "parse_scenario": lambda: (SCENARIO,),
    "parse_scenario_text": lambda: (SCENARIO.read_text(),),
    "parse_tensor": lambda: ("f * d(q1)", C, {"f": p1}),
    "parse_value": lambda: ("(q1) / (f)", C, {"f": p1}),
    "poisson_bivector": lambda: (OMEGA,),
    "poisson_bracket": lambda: (SYM, q1, p1),
    "regularity_check": lambda: (CS,),
    "run_suite": lambda: ("volume-poisson", 1),
    "schouten": lambda: (BIVECTOR, FIELD),
    "schouten_volume_identity_check": lambda: (BIVECTOR, BIVECTOR, VOLUME),
    "standard_form": lambda: (C,),
    "suite_names": lambda: (),
    "volume_poisson_criterion": lambda: (BIVECTOR, VOLUME),
    "wedge": lambda: (DQ1, DP1),
    "wedge_all": lambda: ([DQ1, DP1],),
}

# (callable, argument position, wrong value) -> why the call ends in a result,
# or the error outside AlgebraError that it ends in
NOT_ERRORS = {
    ("Chart", 0, "a string"): "each character of a string is a coordinate name",
    ("differential", 0, "another chart"): "a polynomial on any chart has a differential",
    ("magnetic_form", 1, "an int"): "a number is a constant field component",
    ("magnetic_form", 2, "an int"): "a number is a constant field component",
    ("magnetic_form", 3, "an int"): "a number is a constant field component",
    ("parse_scenario", 0, "a string"): OSError,  # a path that names no file
}
# filled by the parser, which checks what goes in; it stores its fields as given
RECORDS = {"Scenario"}


def _public_callables():
    return sorted(name for name, _ in inspect.getmembers(formcalc, callable) if name in formcalc.__all__)


def _is_exception(name):
    value = getattr(formcalc, name)
    return inspect.isclass(value) and issubclass(value, AlgebraError)


def _wrong_values(valid):
    """An int, None, a string, a polynomial on another chart and a structure
    of the wrong type, each wrong for the slot where ``valid`` is right."""
    return {
        "an int": -5 if isinstance(valid, int) else 5,
        "None": None,
        "a string": "" if isinstance(valid, str) else "x",
        "another chart": FOREIGN,
        "a wrong structure": BIVECTOR if isinstance(valid, Form) else wedge(DQ1, DP1),
    }


def _allowed_ends(name, position, probe):
    """The ends the call may take: ``None`` for a result, or exception types."""
    if name in RECORDS:
        return (None,)
    parameters = list(inspect.signature(getattr(formcalc, name)).parameters.values())
    parameter = parameters[min(position, len(parameters) - 1)]  # the last may be *args
    if probe == "None" and parameter.default is None:
        return (None, AlgebraError)  # the default, under which the rest of the call may fail
    end = NOT_ERRORS.get((name, position, probe), AlgebraError)
    return (end if isinstance(end, type) else None,)


def test_every_public_callable_has_a_row():
    assert set(VALID) == {name for name in _public_callables() if not _is_exception(name)}
    assert all(name in VALID for name, _, _ in NOT_ERRORS) and RECORDS <= set(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_row_ends_in_a_result(name):
    getattr(formcalc, name)(*VALID[name]())


@pytest.mark.parametrize("name", [name for name in _public_callables() if _is_exception(name)])
def test_exception_types_take_any_message(name):
    for value in _wrong_values(None).values():
        assert isinstance(getattr(formcalc, name)(value), AlgebraError)
        assert str(getattr(formcalc, name)(value, 1, 2))


@pytest.mark.parametrize("name", sorted(VALID))
def test_wrong_argument_ends_in_a_typed_error(name):
    """Each argument of the valid call, replaced in turn by each wrong value."""
    ends = []
    for position, valid in enumerate(VALID[name]()):
        for probe, value in _wrong_values(valid).items():
            args = list(VALID[name]())
            args[position] = value
            allowed = _allowed_ends(name, position, probe)
            try:
                getattr(formcalc, name)(*args)
            except Exception as exc:  # noqa: BLE001 -- the end is what the test reads
                ok = any(end is not None and isinstance(exc, end) for end in allowed)
                end = f"{type(exc).__name__}: {exc}"
            else:
                ok, end = None in allowed, "a result"
            if not ok:
                ends.append(f"argument {position} = {probe}: {end}")
    assert ends == []


# the wrong calls of the former untyped ends, each with the error it now ends in
PROBES = {
    # a structure argument of the wrong type
    "omega_power_bracket(5, ...)": (lambda: formcalc.omega_power_bracket(5, 1, q1, p1), KindMismatch),
    "omega_power_bracket(form, ...)": (lambda: formcalc.omega_power_bracket(OMEGA, 1, q1, p1), KindMismatch),
    "poisson_bracket(form, ...)": (lambda: formcalc.poisson_bracket(OMEGA, q1, p1), KindMismatch),
    "hamiltonian_vf(form, ...)": (lambda: formcalc.hamiltonian_vf(OMEGA, q1), KindMismatch),
    "derived_vf(form, ...)": (lambda: formcalc.derived_vf(OMEGA, 1, q1), KindMismatch),
    "derived_vf(sym, 'x', ...)": (lambda: formcalc.derived_vf(SYM, "x", q1), KindMismatch),
    "ConstraintSet(form, ...)": (lambda: ConstraintSet(OMEGA, [q2, p2]), KindMismatch),
    "ConstraintSet(sym, 5)": (lambda: ConstraintSet(SYM, 5), KindMismatch),
    "calibrate_normalization(sym)": (lambda: formcalc.calibrate_normalization(SYM), KindMismatch),
    "jacobiator(lambda, ...)": (lambda: formcalc.jacobiator(lambda f, g: f * g, q1, p1, q2), KindMismatch),
    "dirac_bracket_matrix(None, ...)": (lambda: formcalc.dirac_bracket_matrix(None, q1, p1), KindMismatch),
    "dirac_bracket_matrix(sym, ...)": (lambda: formcalc.dirac_bracket_matrix(SYM, q1, p1), KindMismatch),
    "dirac_bracket_form(sym, ...)": (lambda: formcalc.dirac_bracket_form(SYM, q1, p1), KindMismatch),
    "regularity_check(sym)": (lambda: formcalc.regularity_check(SYM), KindMismatch),
    "jacobi_bracket('x', ...)": (lambda: formcalc.jacobi_bracket("x", q1, p1), KindMismatch),
    "jacobi_bracket(bivector, ...)": (lambda: formcalc.jacobi_bracket(BIVECTOR, q1, p1), KindMismatch),
    "homogenization_check(bivector, ...)": (lambda: formcalc.homogenization_check(BIVECTOR, q1, p1), KindMismatch),
    "JacobiDef(form, field)": (lambda: JacobiDef(OMEGA, FIELD), KindMismatch),
    "JacobiDef(bivector, form)": (lambda: JacobiDef(BIVECTOR, DQ1), KindMismatch),
    "JacobiDef(bivector, foreign field)": (lambda: JacobiDef(BIVECTOR, FIELD.zero(C3, 1)), ChartMismatch),
    "form_power(None, 2)": (lambda: form_power(None, 2), KindMismatch),
    "coordinates(5)": (lambda: coordinates(5), KindMismatch),
    "parse_value(5, chart)": (lambda: parse_value(5, C), KindMismatch),
    "parse_value('q1', 5)": (lambda: parse_value("q1", 5), KindMismatch),
    "parse_value('true', 5)": (lambda: parse_value("true", 5), KindMismatch),
    "parse_scenario_text(5)": (lambda: parse_scenario_text(5), KindMismatch),
    "exact_divide(q1, 5)": (lambda: exact_divide(q1, 5), KindMismatch),
    "float coefficient": (lambda: Polynomial(C, {(1, 0, 0, 0): 1.5}), KindMismatch),
    "float constant": (lambda: Polynomial.constant(C, 0.5), KindMismatch),
    "float tensor coefficient": (lambda: Form(C, 1, {(0,): 1.5}), KindMismatch),
    # a term key or method argument of the wrong type
    "Polynomial(chart, {5: 1})": (lambda: Polynomial(C, {5: 1}), KindMismatch),
    "Form(chart, 1, {5: 1})": (lambda: Form(C, 1, {5: 1}), KindMismatch),
    "q1.coefficient(5)": (lambda: q1.coefficient(5), KindMismatch),
    "form.coefficient(5)": (lambda: OMEGA.coefficient(5), KindMismatch),
    "q1.diff('x')": (lambda: q1.diff("x"), KindMismatch),
    "q1.extended_to(5)": (lambda: q1.extended_to(5), KindMismatch),
    "Polynomial.constant(5, 1)": (lambda: Polynomial.constant(5, 1), KindMismatch),
    "Form(chart, 1, {('x',): 1})": (lambda: Form(C, 1, {("x",): 1}), InvalidArgument),
    "Form(chart, 1, {(1.5,): 1})": (lambda: Form(C, 1, {(1.5,): 1}), InvalidArgument),
    "SymplecticData.power('x')": (lambda: SYM.power("x"), InvalidArgument),
    "SymplecticData.power(1.5)": (lambda: SYM.power(1.5), InvalidArgument),
    "SymplecticData.bivector_power(None)": (lambda: SYM.bivector_power(None), InvalidArgument),
    # the degree cap keeps its own error
    "exponent past the degree cap": (lambda: Polynomial(C, {(2 ** 32, 0, 0, 0): 1}), DegreeOverflow),
    "power past the degree cap": (lambda: q1 ** 2 ** 32, DegreeOverflow),
    # a value of the right type out of range
    "Chart([])": (lambda: Chart([]), InvalidArgument),
    "Chart(duplicate names)": (lambda: Chart(["q", "q"]), InvalidArgument),
    "darboux_chart(0)": (lambda: darboux_chart(0), InvalidArgument),
    "negative power": (lambda: q1 ** -1, InvalidArgument),
    "fractional power": (lambda: q1 ** Fraction(1, 2), InvalidArgument),
    "SymplecticData.power(-1)": (lambda: SYM.power(-1), InvalidArgument),
    "form_power(form, -1)": (lambda: form_power(OMEGA, -1), InvalidArgument),
    "coordinate_form(chart, unknown)": (lambda: coordinate_form(C, "z"), InvalidArgument),
    "exponent of the wrong length": (lambda: Polynomial(C, {(1,): 1}), InvalidArgument),
    "non-square matrix": (lambda: formcalc.matrix_determinant([[ZERO, q1]], C), InvalidArgument),
    "odd matrix": (lambda: formcalc.matrix_adjugate([[ZERO]], C), InvalidArgument),
    "wedge_all([])": (lambda: formcalc.wedge_all([]), InvalidArgument),
    "constant value of q1": (lambda: q1.constant_value(), InvalidArgument),
    "run_suite(unknown name)": (lambda: formcalc.run_suite("nonsense"), InvalidArgument),
    "magnetic_form(4-dim chart, ...)": (lambda: formcalc.magnetic_form(C, q1, q2, p1), InvalidArgument),
    # an environment value is a polynomial on the parse chart
    "environment value on another chart": (lambda: formcalc.parse_expr("f", C, {"f": FOREIGN}), ChartMismatch),
    "int environment value": (lambda: formcalc.parse_expr("q1 * f", C, {"f": 5}), KindMismatch),
    "form environment value": (lambda: formcalc.parse_tensor("f", C, {"f": DQ1}), KindMismatch),
    # a division by zero
    "exact_divide(q1, 0)": (lambda: exact_divide(q1, ZERO), DivisionByZero),
    "q1 / 0": (lambda: q1 / 0, DivisionByZero),
    "form / 0": (lambda: OMEGA / 0, DivisionByZero),
    "RationalExpr(q1, 0)": (lambda: RationalExpr(q1, ZERO), DivisionByZero),
    "quotient / 0": (lambda: RationalExpr(q1, p1) / ZERO, DivisionByZero),
    # Python's operator protocol keeps its own TypeError
    "q1 + 'x'": (lambda: q1 + "x", TypeError),
    "q1 / q1": (lambda: q1 / q1, TypeError),
    "q1 - 'x'": (lambda: q1 - "x", TypeError),
    "'x' - q1": (lambda: "x" - q1, TypeError),
    "form * 'x'": (lambda: DQ1 * "x", TypeError),
    "form / q1": (lambda: DQ1 / q1, TypeError),
    "quotient + 'x'": (lambda: RationalExpr(q1, p1) + "x", TypeError),
    "quotient - 'x'": (lambda: RationalExpr(q1, p1) - "x", TypeError),
    "quotient * 'x'": (lambda: RationalExpr(q1, p1) * "x", TypeError),
    "quotient / 'x'": (lambda: RationalExpr(q1, p1) / "x", TypeError),
}


@pytest.mark.parametrize("label", sorted(PROBES))
def test_former_untyped_end(label):
    call, error = PROBES[label]
    with pytest.raises(error) as info:
        call()
    if error is not TypeError:
        assert isinstance(info.value, AlgebraError)
    else:
        assert not isinstance(info.value, AlgebraError)


@pytest.mark.parametrize("left, right", [(DQ1, 3), (RationalExpr(q1, p1), "x")], ids=["form", "quotient"])
def test_equality_with_another_type_is_false(left, right):
    assert (left == right) is False and (left != right) is True


def test_typed_errors_are_the_built_in_ones_too():
    # callers that catch ValueError or ZeroDivisionError keep working
    assert issubclass(InvalidArgument, ValueError) and issubclass(DivisionByZero, ZeroDivisionError)
