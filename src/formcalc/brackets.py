"""Bracket constructions: form-defined k-brackets, symplectic-power brackets,
Nambu top brackets, derived and Hamiltonian vector fields, and Jacobi-type
brackets with their exponential homogenization check.

Normalizations.  Two families of brackets share the volume ``omega^n/n!``:

* :func:`omega_power_bracket` pairs ``2k`` functions against
  ``k! * omega^{n-k}/(n-k)!``; it is generated by the k-th wedge power of the
  inverse bivector.
* the *section* bracket behind :func:`derived_vf` drops the ``k!`` factor
  (``alpha = omega^{n-k}/(n-k)!``).  This is the normalization for which
  ``X_{f1,f2,f3} = {f1,f2} X_{f3} + {f2,f3} X_{f1} + {f3,f1} X_{f2}`` holds
  exactly, and for which the magnetic-chart field ``X_{p1,p2,p3}`` equals
  ``B^i e(q_i)`` with no extra constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .chart import Chart
from .errors import (
    AlgebraError,
    ArityMismatch,
    ChartMismatch,
    DegenerateStructure,
    GradeMismatch,
    KindMismatch,
)
from .exterior import (
    Form,
    Multivector,
    SymplecticData,
    _support_levels,
    _support_pair,
    _support_wedge,
    _volume_constant,
    differential,
    mv_from_form,
    pair,
    wedge,
    wedge_all,
)
from .poly import ExpPoly, Polynomial, RationalExpr
from .schouten import jacobi_pair_check


class BracketDef:
    """A k-ary bracket cut out by a volume form and a complementary form.

    The bracket of ``k = dim - grade(alpha)`` functions is the scalar ``s``
    with ``s * volume == df_1 ^ ... ^ df_k ^ alpha``.  When the volume
    coefficient is a rational constant the generating k-multivector (the
    ``L`` with ``i_L volume == alpha``) is built at construction and
    evaluation pairs the differentials against it; otherwise evaluation is a
    :class:`RationalExpr` quotient of top-form coefficients.  The tests check
    that the two routes agree.
    """

    __slots__ = ("volume", "alpha", "arity", "generator", "_top", "_vol_coeff", "_levels")

    def __init__(self, volume: Form, alpha: Form):
        if not isinstance(volume, Form) or not isinstance(alpha, Form):
            raise AlgebraError("BracketDef takes two forms")
        if volume.chart != alpha.chart:
            raise ChartMismatch("volume and alpha live on different charts")
        chart = volume.chart
        m = chart.dim
        if volume.grade != m or volume.is_zero():
            raise DegenerateStructure("volume must be a nonzero top form")
        arity = m - alpha.grade
        if arity < 1:
            raise GradeMismatch("alpha leaves no argument slots")
        self.volume = volume
        self.alpha = alpha
        self.arity = arity
        self._top = tuple(range(m))
        self._vol_coeff = volume.terms[self._top]
        self.generator = mv_from_form(volume, alpha) if self._vol_coeff.is_constant() else None
        self._levels = None

    @property
    def chart(self) -> Chart:
        return self.volume.chart

    def _generator_levels(self):
        """The index subsets of the generator's terms, level by level (see
        :func:`~formcalc.exterior._support_levels`), built on first use."""
        if self._levels is None:
            self._levels = _support_levels(self.generator)
        return self._levels


def _argument(chart: Chart, f) -> Polynomial:
    """``f`` as a polynomial on ``chart``.  A zero quotient (a vanishing
    bracket under a non-constant volume) is the zero polynomial; a nonzero
    one, or anything else that is not a polynomial, is a kind error."""
    if isinstance(f, RationalExpr) and f.is_zero():
        f = f.numerator
    if not isinstance(f, Polynomial):
        raise KindMismatch("bracket arguments must be polynomials")
    if f.chart != chart:
        raise ChartMismatch("bracket argument lives on a different chart")
    return f


def _differentials(chart: Chart, functions) -> list[Form]:
    return [differential(_argument(chart, f)) for f in functions]


def bracket(bdef: BracketDef, *functions: Polynomial):
    """Evaluate a form-defined bracket on ``arity`` polynomial arguments.

    Under a constant volume the value is the pairing
    ``<df_1 ^ ... ^ df_k, L>`` with the generator ``L``, and the
    differentials are wedged only onto index tuples inside ``L``'s terms,
    so a component the pairing would not read is never built.  Under a
    non-constant volume it is the :class:`RationalExpr` quotient of the top
    coefficients of ``df_1 ^ ... ^ df_k ^ alpha`` and of the volume.
    """
    if len(functions) != bdef.arity:
        raise ArityMismatch(f"bracket takes {bdef.arity} arguments, got {len(functions)}")
    dfs = _differentials(bdef.chart, functions)
    if bdef.generator is not None:
        return _support_pair(dfs, bdef.generator, bdef._generator_levels())
    return RationalExpr(wedge(wedge_all(dfs), bdef.alpha).coefficient(bdef._top), bdef._vol_coeff)


def power_bracket_def(volume: Form, power: Form, k: int, with_factorial: bool) -> BracketDef:
    """The bracket of ``alpha = [k!] * power/(n-k)!`` against ``volume``, for
    ``power = omega^{n-k}`` and ``volume = omega^n/n!``; callers pass the
    powers so that their own caches are reused."""
    n = volume.chart.dim // 2
    scale = Fraction(factorial(k) if with_factorial else 1, factorial(n - k))
    return BracketDef(volume, power * scale)


def _power_def(sym: SymplecticData, k: int, with_factorial: bool) -> BracketDef:
    if not 1 <= k <= sym.n:
        raise ArityMismatch(f"power index must lie in 1..{sym.n}")
    return sym.cached(("bracket_def", k, with_factorial),
                      lambda: power_bracket_def(sym.volume(), sym.power(sym.n - k), k, with_factorial))


def omega_power_bracket(sym: SymplecticData, k: int, *functions: Polynomial) -> Polynomial:
    """The 2k-ary bracket with ``alpha = k! * omega^{n-k}/(n-k)!``.

    Generated by the k-th wedge power of the inverse bivector; ``k = 1`` is
    the ordinary Poisson bracket of the symplectic form.
    """
    bdef = _power_def(sym, k, with_factorial=True)
    if len(functions) != 2 * k:
        raise ArityMismatch(f"power bracket of index {k} takes {2 * k} arguments")
    return bracket(bdef, *functions)


def poisson_bracket(sym: SymplecticData, f: Polynomial, g: Polynomial) -> Polynomial:
    """Shorthand for the binary case of :func:`omega_power_bracket`."""
    return omega_power_bracket(sym, 1, f, g)


def nambu_top_bracket(volume: Form, gamma: Polynomial, *functions: Polynomial) -> Polynomial:
    """Top-arity bracket ``gamma * det(df_i/dx_j)`` scaled against the volume.

    The Jacobian determinant is read off the wedge of the differentials; the
    tests compare it with a cofactor determinant of the Jacobian matrix.
    """
    c = _volume_constant(volume)
    chart = volume.chart
    m = chart.dim
    if gamma.chart != chart:
        raise ChartMismatch("gamma lives on a different chart")
    if len(functions) != m:
        raise ArityMismatch(f"top bracket takes {m} arguments, got {len(functions)}")
    dfw = wedge_all(_differentials(chart, functions))
    return gamma * dfw.coefficient(tuple(range(m))) * (Fraction(1) / c)


def hamiltonian_vf(sym: SymplecticData, f: Polynomial) -> Multivector:
    """The vector field ``X_f`` with ``i_{X_f} omega = -df`` and ``X_f(g) = {f,g}``."""
    f = _argument(sym.chart, f)
    m = sym.chart.dim
    components = [Polynomial.zero(sym.chart) for _ in range(m)]
    for (a, b), coefficient in sym.bivector.terms.items():
        components[b] = components[b] + coefficient * f.diff(a)
        components[a] = components[a] - coefficient * f.diff(b)
    return Multivector(sym.chart, 1, {(i,): components[i] for i in range(m)})


def derived_vf(sym: SymplecticData, k: int, *functions: Polynomial) -> Multivector:
    """The vector field obtained by fixing all but the last slot of the
    section-normalized 2k-bracket (``alpha = omega^{n-k}/(n-k)!``).

    Equals ``1/k!`` times the corresponding slice of
    :func:`omega_power_bracket`; for ``k = 1`` it reduces to
    :func:`hamiltonian_vf`.  Component ``i`` is the bracket with last
    argument ``x_i``, ``<W ^ d(x_i), L>`` for the wedge ``W`` of the fixed
    differentials and the generator ``L``.  ``W`` is built only on the
    generator's index tuples with one index removed, and component ``i`` is
    the signed sum, over the generator tuples ``K`` that hold ``i``, of
    ``L_K`` times the coefficient of ``W`` on ``K`` without ``i``.
    """
    bdef = _power_def(sym, k, with_factorial=False)
    if len(functions) != 2 * k - 1:
        raise ArityMismatch(f"derived field of index {k} takes {2 * k - 1} arguments")
    chart = sym.chart
    fixed = _support_wedge(_differentials(chart, functions), bdef._generator_levels())
    components: dict[tuple[int], Polynomial] = {}
    for key, coefficient in bdef.generator.terms.items():
        for p, i in enumerate(key):
            value = fixed.get(key[:p] + key[p + 1:])
            if value is None:
                continue
            term = coefficient * value
            # d(x_i) moves left past the len(key) - 1 - p larger indices
            if (len(key) - 1 - p) % 2:
                term = -term
            acc = components.get((i,))
            components[(i,)] = term if acc is None else acc + term
    return Multivector(chart, 1, components)


class JacobiDef:
    """A bivector paired with a vector field, with its compatibility flag.

    ``is_jacobi`` is recomputed at construction via
    :func:`~formcalc.schouten.jacobi_pair_check`; when it holds, the bracket
    below satisfies the ordinary Jacobi identity.
    """

    __slots__ = ("bivector", "field", "is_jacobi", "_levels")

    def __init__(self, bivector: Multivector, field: Multivector):
        if bivector.chart != field.chart:
            raise ChartMismatch("bivector and field live on different charts")
        if bivector.grade != 2 or field.grade != 1:
            raise GradeMismatch("JacobiDef takes a grade-2 and a grade-1 multivector")
        self.bivector = bivector
        self.field = field
        self.is_jacobi = jacobi_pair_check(bivector, field)
        self._levels = _support_levels(bivector)

    @property
    def chart(self) -> Chart:
        return self.bivector.chart


def jacobi_bracket(jdef: JacobiDef, f: Polynomial, g: Polynomial) -> Polynomial:
    """``L(f,g) + f*X(g) - g*X(f)`` for the pair ``(L, X)``."""
    f, g = _argument(jdef.chart, f), _argument(jdef.chart, g)
    lam_part = _support_pair([differential(f), differential(g)], jdef.bivector, jdef._levels)
    xf = pair(differential(f), jdef.field)
    xg = pair(differential(g), jdef.field)
    return lam_part + f * xg - g * xf


def homogenization_check(
    jdef: JacobiDef, f: Polynomial, g: Polynomial, s_name: str = "s"
) -> bool:
    """Exponential-weight reformulation of the Jacobi bracket.

    On the chart extended by a fresh coordinate ``s``, evaluating the
    bivector ``L + e(s)^X`` on ``exp(s)*f`` and ``exp(s)*g`` and rescaling by
    ``exp(-2s)`` must reproduce ``jacobi_bracket(jdef, f, g)``.  Returns the
    exact equality of the two sides.
    """
    f, g = _argument(jdef.chart, f), _argument(jdef.chart, g)
    try:
        extended = jdef.chart.extended(s_name)
    except ValueError:
        raise ChartMismatch(f"coordinate {s_name!r} is already in use") from None
    s_index = extended.dim - 1

    # entries of the extended bivector, as (i, j, coefficient) with i < j
    entries = [
        (i, j, c.extended_to(extended))
        for (i, j), c in jdef.bivector.terms.items()
    ]
    for (i,), c in jdef.field.terms.items():
        # e(s)^e(x_i) = -e(x_i)^e(s)
        entries.append((i, s_index, -c.extended_to(extended)))

    def lift(p: Polynomial, weight: int = 0) -> ExpPoly:
        return ExpPoly.from_polynomial(p.extended_to(extended), s_index, weight)

    u = lift(f, weight=1)
    v = lift(g, weight=1)
    total = ExpPoly(extended, s_index)
    for i, j, c in entries:
        value = u.diff(i) * v.diff(j) - u.diff(j) * v.diff(i)
        total = total + ExpPoly.from_polynomial(c, s_index) * value
    left = ExpPoly.exponential(extended, s_index, -2) * total
    right = lift(jacobi_bracket(jdef, f, g))
    return left == right


def _binary_bracket(source):
    if isinstance(source, SymplecticData):
        return lambda f, g: omega_power_bracket(source, 1, f, g)
    if isinstance(source, BracketDef):
        if source.arity != 2:
            raise ArityMismatch("jacobiator needs a binary bracket definition")
        return lambda f, g: bracket(source, f, g)
    if isinstance(source, JacobiDef):
        return lambda f, g: jacobi_bracket(source, f, g)
    if callable(source):
        return source
    raise AlgebraError("unsupported bracket source for the jacobiator")


def jacobiator(source, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """``{f,{g,h}} + {g,{h,f}} + {h,{f,g}}`` for any binary bracket source."""
    b = _binary_bracket(source)
    return b(f, b(g, h)) + b(g, b(h, f)) + b(h, b(f, g))
