"""Bracket constructions: form-defined k-brackets, symplectic-power brackets,
Nambu top brackets, derived and Hamiltonian vector fields, and Jacobi-type
brackets with their exponential homogenization check.

Each bracket but Nambu's pairs the differentials with a generator, one
:class:`~formcalc.exterior._Generator`: ``*alpha``, a Jacobi bivector, or the
cached divided power below (:mod:`formcalc.dirac` pairs with the ``k = 1``
one, and its form numerator with ``*(Theta ^ omega^{m-1})``).

Normalizations.  Both symplectic families pair against the divided power
``Lambda^k/k!`` of the inverse bivector, the generator of
``alpha = omega^{n-k}/(n-k)!`` against the volume ``omega^n/n!``.
:func:`omega_power_bracket` is ``k!`` times that pairing, so ``Lambda^k``
generates it.  The *section* bracket behind :func:`derived_vf` is the
pairing itself, with its last slot left open; at ``k = 1`` it gives the
Hamiltonian field.  It is the normalization for which
``X_{f1,f2,f3} = {f1,f2} X_{f3} + {f2,f3} X_{f1} + {f3,f1} X_{f2}`` holds
exactly, and for which the magnetic-chart field ``X_{p1,p2,p3}`` equals
``B^i e(q_i)`` with no extra constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .chart import Chart
from .errors import ArityMismatch, GradeMismatch, checked
from .exterior import (
    Form,
    Multivector,
    SymplecticData,
    _Generator,
    _star,
    _top_coefficient,
    _volume_constant,
    coordinate_form,
    differential,
    pair,
    wedge_all,
)
from .poly import Polynomial, RationalExpr, sum_of_products
from .schouten import jacobi_pair_check


class BracketDef:
    """A k-ary bracket cut out by a volume form and a complementary form.

    The bracket of ``k = dim - grade(alpha)`` functions is the scalar ``s``
    with ``s * volume == df_1 ^ ... ^ df_k ^ alpha``.  Writing the volume as
    ``c * dx_1^...^dx_m``, that is ``<df_1 ^ ... ^ df_k, *alpha> / c`` for
    the k-multivector ``*alpha`` with ``i_{*alpha}(dx_1^...^dx_m) == alpha``.
    When ``c`` is a rational constant the ``1/c`` is folded into it, giving
    the ``generator`` (the ``L`` with ``i_L volume == alpha``); otherwise
    ``generator`` is ``None`` and evaluation is a :class:`RationalExpr`
    quotient by ``c``.
    """

    __slots__ = ("volume", "alpha", "arity", "generator", "_vol_coeff", "_pairing")

    def __init__(self, volume: Form, alpha: Form):
        vol_coeff = _top_coefficient(volume)
        arity = volume.chart.dim - checked(alpha, Form, "alpha", chart=volume.chart).grade
        if arity < 1:
            raise GradeMismatch("alpha leaves no argument slots")
        self.volume = volume
        self.alpha = alpha
        self.arity = arity
        self._vol_coeff = vol_coeff
        constant = vol_coeff.is_constant()
        star = _star(alpha, Fraction(1) / vol_coeff.constant_value() if constant else Fraction(1))
        self.generator = star if constant else None
        self._pairing = _Generator(star)

    @property
    def chart(self) -> Chart:
        return self.volume.chart


def _argument(chart: Chart, f) -> Polynomial:
    """``f`` as a polynomial on ``chart``.  A zero quotient (a vanishing
    bracket under a non-constant volume) is the zero polynomial; a nonzero
    one, or anything else that is not a polynomial, is a kind error."""
    if isinstance(f, RationalExpr) and f.is_zero():
        f = f.numerator
    return checked(f, Polynomial, "bracket argument", chart=chart)


def _arity(what: str, functions, wanted: int):
    """The count check of every bracket, and of the scenario parser's tasks."""
    if len(functions) != wanted:
        raise ArityMismatch(f"{what} takes {wanted} functions, got {len(functions)}")


def _power_index(n: int, k) -> int:
    """``k``, if it is a power index of a ``2n``-dimensional structure."""
    if not 1 <= checked(k, int, "power index") <= n:
        raise ArityMismatch(f"k must lie in 1..{n}")
    return k


def _differentials(chart: Chart, functions) -> list[Form]:
    return [differential(_argument(chart, f)) for f in functions]


def bracket(bdef: BracketDef, *functions: Polynomial):
    """Evaluate a form-defined bracket on ``arity`` polynomial arguments.

    The value is the pairing ``<df_1 ^ ... ^ df_k, *alpha>`` (see
    :class:`BracketDef`): the bracket under a constant volume, and under any
    other the numerator of its quotient by the volume coefficient.
    """
    _arity("bracket", functions, checked(bdef, BracketDef, "bracket definition").arity)
    value = bdef._pairing.pair(_differentials(bdef.chart, functions))
    return value if bdef.generator is not None else RationalExpr(value, bdef._vol_coeff)


def power_bracket_def(sym: SymplecticData, k: int) -> BracketDef:
    """The volume route to the 2k-bracket: ``alpha = k! * omega^{n-k}/(n-k)!``
    against the volume ``omega^n/n!``, both read off ``sym``'s cached powers.
    The ``power-bracket`` suite and the tests check the divided power against it."""
    n = checked(sym, SymplecticData, "symplectic structure").n
    alpha = sym.power(n - _power_index(n, k)) * Fraction(factorial(k), factorial(n - k))
    return BracketDef(sym.volume(), alpha)


def _divided_power(sym: SymplecticData, k: int) -> _Generator:
    """The generator of ``Lambda^k/k!``, built once per structure and ``k``
    after the one check of both; unlike ``Lambda^k`` its entries are ``+-1`` on a standard form."""
    _power_index(checked(sym, SymplecticData, "symplectic structure").n, k)
    return sym.cached(("divided_power", k),
                      lambda: _Generator(sym.bivector_power(k) * Fraction(1, factorial(k))))


def omega_power_bracket(sym: SymplecticData, k: int, *functions: Polynomial) -> Polynomial:
    """The 2k-ary bracket generated by the k-th wedge power of the inverse
    bivector, as ``k!`` times the pairing with ``Lambda^k/k!``; ``k = 1`` is
    the ordinary Poisson bracket of the symplectic form."""
    generator = _divided_power(sym, k)  # k outside 1..n is an arity error before any other
    _arity(f"power bracket with k={k}", functions, 2 * k)
    return factorial(k) * generator.pair(_differentials(sym.chart, functions))


def poisson_bracket(sym: SymplecticData, f: Polynomial, g: Polynomial) -> Polynomial:
    """Shorthand for the binary case of :func:`omega_power_bracket`."""
    return omega_power_bracket(sym, 1, f, g)


def nambu_top_bracket(volume: Form, gamma: Polynomial, *functions: Polynomial) -> Polynomial:
    """Top-arity bracket ``gamma * det(df_i/dx_j)`` scaled against the volume.

    The Jacobian determinant is read off the wedge of the differentials; the
    tests compare it with a cofactor determinant of the Jacobian matrix.
    Its fewest-new-indices order gives triangular functions one key per step.
    """
    c = _volume_constant(volume)
    chart = volume.chart
    m = chart.dim
    gamma = _argument(chart, gamma)
    _arity("top bracket", functions, m)
    dfw = wedge_all(_differentials(chart, functions))
    return gamma * dfw.coefficient(tuple(range(m))) * (Fraction(1) / c)


def hamiltonian_vf(sym: SymplecticData, f: Polynomial) -> Multivector:
    """The vector field ``X_f`` with ``i_{X_f} omega = -df`` and ``X_f(g) = {f,g}``:
    the ``k = 1`` case of :func:`derived_vf`."""
    return derived_vf(sym, 1, f)


def derived_vf(sym: SymplecticData, k: int, *functions: Polynomial) -> Multivector:
    """The vector field obtained by fixing all but the last slot of the
    section-normalized 2k-bracket, the pairing with ``L = Lambda^k/k!``.

    Equals ``1/k!`` times the corresponding slice of
    :func:`omega_power_bracket`; for ``k = 1`` it is :func:`hamiltonian_vf`.
    """
    generator = _divided_power(sym, k)
    _arity(f"derived field with k={k}", functions, 2 * k - 1)
    return generator.field(_differentials(sym.chart, functions))


class JacobiDef:
    """A bivector paired with a vector field, with its compatibility flag.

    ``is_jacobi`` is recomputed at construction via
    :func:`~formcalc.schouten.jacobi_pair_check`; when it holds, the bracket
    below satisfies the ordinary Jacobi identity.
    """

    __slots__ = ("bivector", "field", "is_jacobi", "_pairing")

    def __init__(self, bivector: Multivector, field: Multivector):
        self.is_jacobi = jacobi_pair_check(bivector, field)  # checks both arguments
        self.bivector = bivector
        self.field = field
        self._pairing = _Generator(bivector)

    @property
    def chart(self) -> Chart:
        return self.bivector.chart


def jacobi_bracket(jdef: JacobiDef, f: Polynomial, g: Polynomial) -> Polynomial:
    """``L(f,g) + f*X(g) - g*X(f)`` for the pair ``(L, X)``."""
    checked(jdef, JacobiDef, "Jacobi structure")
    f, g = _argument(jdef.chart, f), _argument(jdef.chart, g)
    df, dg = differential(f), differential(g)
    products = jdef._pairing.products([df, dg])
    products += [(f, pair(dg, jdef.field), False), (g, pair(df, jdef.field), True)]
    return sum_of_products(products, jdef.chart)


def homogenization_check(jdef: JacobiDef, f: Polynomial, g: Polynomial) -> bool:
    """Exponential-weight reformulation of the Jacobi bracket (Poissonization).

    On the chart extended by a fresh coordinate ``s``, evaluating the
    bivector ``P = L + e(s)^X`` on ``exp(s)*f`` and ``exp(s)*g`` and
    rescaling by ``exp(-2s)`` must reproduce ``jacobi_bracket(jdef, f, g)``
    (Lichnerowicz, "Les variétés de Jacobi et leurs algèbres de Lie
    associées", J. Math. Pures Appl. 57, 1978).  The exponential enters only
    through ``d(exp(s)*p) = exp(s)*(dp + p*ds)``, so each argument is lifted
    to the 1-form ``dp + p*ds`` and the factors ``exp(s)*exp(s)*exp(-2s)``
    cancel: the left side is ``<lift(f) ^ lift(g), P>``, one
    ``_Generator(P)`` pairing.  Returns its exact equality with the bracket,
    both read on the extended chart.  The name of ``s`` is a run of ``s``
    longer than every name of the chart, so it is never one of them.
    """
    checked(jdef, JacobiDef, "Jacobi structure")
    f, g = _argument(jdef.chart, f), _argument(jdef.chart, g)
    s_name = "s" * (1 + max(map(len, jdef.chart.names)))
    extended = jdef.chart.extended(s_name)
    s_index = extended.dim - 1
    terms = {key: c.extended_to(extended) for key, c in jdef.bivector.terms.items()}
    for (i,), c in jdef.field.terms.items():
        # e(s)^e(x_i) = -e(x_i)^e(s)
        terms[(i, s_index)] = -c.extended_to(extended)
    bivector = Multivector._of(extended, 2, terms)
    ds = coordinate_form(extended, s_name)

    def lift(p: Polynomial) -> Form:
        p = p.extended_to(extended)
        return differential(p) + ds * p

    left = _Generator(bivector).pair([lift(f), lift(g)])
    return left == jacobi_bracket(jdef, f, g).extended_to(extended)


def _binary_bracket(source):
    checked(source, (SymplecticData, Multivector, BracketDef, JacobiDef), "jacobiator source")
    if isinstance(source, SymplecticData):
        return lambda f, g: omega_power_bracket(source, 1, f, g)
    if isinstance(source, Multivector):
        generator = _Generator(checked(source, Multivector, "jacobiator bivector", grade=2))
        return lambda f, g: generator.pair(_differentials(source.chart, (f, g)))
    if isinstance(source, BracketDef):
        if source.arity != 2:
            raise ArityMismatch("jacobiator needs a binary bracket definition")
        return lambda f, g: bracket(source, f, g)
    return lambda f, g: jacobi_bracket(source, f, g)


def jacobiator(source, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """``{f,{g,h}} + {g,{h,f}} + {h,{f,g}}`` for a binary bracket source: a symplectic
    structure, a bivector, a binary bracket definition or a Jacobi structure.
    Any other source is a :class:`~formcalc.errors.KindMismatch`."""
    b = _binary_bracket(source)
    return b(f, b(g, h)) + b(g, b(h, f)) + b(h, b(f, g))
