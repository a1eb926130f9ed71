"""The formcalc callables the traced run wraps, and the check that none is wrapped.

``SPANS`` are layer boundaries: each call becomes a span with a parent.
``KERNELS`` are the high-frequency polynomial operations: their calls are
aggregated into counts and self time per parent span instead.  Names are
``module.attribute`` or ``module.Class.method`` inside the formcalc package.
"""

from __future__ import annotations

import sys

SPANS = (
    "poly.matrix_determinant",
    "poly.matrix_adjugate",
    "exterior.wedge",
    "exterior.pair",
    "exterior.contract",
    "exterior.exterior_derivative",
    "exterior.form_power",
    "exterior.poisson_bivector",
    "exterior.SymplecticData.__init__",
    "schouten.schouten",
    "brackets.bracket",
    "brackets.BracketDef.__init__",
    "brackets.omega_power_bracket",
    "brackets.derived_vf",
    "brackets.nambu_top_bracket",
    "brackets.jacobiator",
    "dirac.ConstraintSet.__init__",
    "dirac.dirac_bracket_matrix",
    "dirac.dirac_bracket_form",
    "dirac.calibrate_normalization",
    "parsing.parse_value",
    "parsing.parse_expr",
    "parsing.parse_tensor",
    "manifest.parse_scenario_text",
    "cli.run_scenario",
    "cli.Report.render",
)

# metric name -> callables counted under it
KERNELS = {
    "poly.mul": ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
    "poly.add": ("poly.Polynomial.__add__", "poly.Polynomial.__radd__",
                 "poly.Polynomial.__sub__", "poly.Polynomial.__rsub__"),
    "poly.diff": ("poly.Polynomial.diff",),
    "poly.pow": ("poly.Polynomial.__pow__",),
    "poly.exact_divide": ("poly.exact_divide",),
}


def bindings(fc, target):
    """Every ``(owner, attribute, value)`` through which formcalc reaches ``target``.

    A method is bound only on its class.  A module function is bound in its
    home module and in every ``formcalc`` module (the package included) that
    imported it by name.
    """
    module_name, _, rest = target.partition(".")
    home = _module(fc, module_name)
    if "." in rest:
        cls_name, method = rest.split(".")
        cls = getattr(home, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(home, rest)
    found = []
    for name, module in _formcalc_modules(fc):
        for attribute, value in vars(module).items():
            if value is original:
                found.append((module, attribute, value))
    return found


def _module(fc, name):
    # the package re-exports functions that shadow some submodule names
    # (formcalc.schouten is the function), so go through sys.modules
    return sys.modules[f"{fc.__name__}.{name}"]


def _formcalc_modules(fc):
    return [(name, module) for name, module in sorted(sys.modules.items())
            if name == fc.__name__ or name.startswith(fc.__name__ + ".")]


def all_targets():
    return list(SPANS) + [t for group in KERNELS.values() for t in group]


def assert_pristine(fc, source_dir):
    """Raise unless every traced callable is formcalc's own, unwrapped object.

    Each binding must be the very object its home module defines, and that
    object's code must come from a file under ``source_dir``.
    """
    for target in all_targets():
        for owner, attribute, value in bindings(fc, target):
            code = getattr(value, "__code__", None)
            if code is None or not code.co_filename.startswith(source_dir):
                raise RuntimeError(f"{target} is wrapped at {owner!r}.{attribute}")
        module_name, _, rest = target.partition(".")
        if "." not in rest:
            home = getattr(_module(fc, module_name), rest)
            for name, module in _formcalc_modules(fc):
                alias = vars(module).get(rest)
                if callable(alias) and alias is not home and getattr(alias, "__name__", "") == rest:
                    raise RuntimeError(f"{name}.{rest} is not the object {module_name} defines")
