"""Exact work counts for the polynomial kernel, in place of timings.

Each test wraps private kernel functions with ``monkeypatch`` and counts
what they are handed: the term pairs that ``poly._add_product``,
``poly._disjoint_product`` and ``Polynomial._shifted`` multiply, the polynomials ``poly._make`` builds
with the terms they hold, the products that each level of a generator
wedge adds into its merged tuples' tables, the keys and entries of the
generator's merge table, the keys of each partial wedge of a Nambu
bracket of triangular functions, the exact divisions a constant quotient
skips, the calls of the two inversion sweeps,
``poly._pfaffian_sweep`` for constant matrices and ``poly._polynomial_sweep``
for the rest, the fused sums and exact divisions of each of the
latter's steps, the wedges and tensor constructors a parsed wedge chain
calls, the tensor products a parsed tensor term calls, the
``Polynomial.variable`` and ``__pow__`` calls of a literal after a
parenthesized factor, the fused sums of a
tensor divided by a scalar, the ``poly._partials`` passes that a
differential or a bracket of multivectors makes, the half-key and
coefficient texts (``poly._half_text``, ``poly._lead``) that printing a
polynomial builds, the general-loop passes a product of collision-free
factors skips, and the one polynomial a pairing with constant targets
builds.  The counts are
exact functions of the input, so a complexity claim is pinned with no
timing noise (after Goldsmith, Aiken & Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007, with exact counts in place of
fitted times).
"""

import importlib
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby

import pytest

from formcalc import (BracketDef, Chart, ConstraintSet, Form, Multivector, NotDivisible, Polynomial, RationalExpr,
                      SymplecticData, bracket, coordinates, darboux_chart, differential, dirac_bracket_form,
                      dirac_bracket_matrix, is_poisson, magnetic_form, nambu_top_bracket, parse_expr, parse_tensor,
                      schouten, standard_form, wedge_all)
from formcalc import exterior as exterior_module
from formcalc import parsing as parsing_module
from formcalc import poly as poly_module
from formcalc.brackets import _divided_power
from formcalc.cli import run_scenario
from formcalc.manifest import parse_scenario_text

from tests.helpers import permutation_sign, pulled_back_form, rand_multivector, rand_nonzero_poly, rand_poly
from tests.test_exterior import dense_constant_form

# the module, which the package's ``schouten`` function shadows as an attribute
schouten_module = importlib.import_module("formcalc.schouten")


@pytest.fixture
def work(monkeypatch):
    """A ``Counter`` of ``pairs`` (term pairs multiplied), ``built``
    (polynomials made) and ``terms`` (the terms those hold)."""
    counts = Counter()
    add_product, shifted, make = poly_module._add_product, Polynomial._shifted, poly_module._make
    disjoint_product = poly_module._disjoint_product

    def counted_add_product(out, large, small, negate):
        counts["pairs"] += len(large) * len(small)
        return add_product(out, large, small, negate)

    def counted_disjoint_product(large, small, negate):
        counts["pairs"] += len(large) * len(small)
        return disjoint_product(large, small, negate)

    def counted_shifted(self, shift, factor):
        counts["pairs"] += self.term_count()
        return shifted(self, shift, factor)

    def counted_make(chart, terms, degree):
        counts["built"] += 1
        counts["terms"] += len(terms)
        return make(chart, terms, degree)

    monkeypatch.setattr(poly_module, "_add_product", counted_add_product)
    monkeypatch.setattr(poly_module, "_disjoint_product", counted_disjoint_product)
    monkeypatch.setattr(Polynomial, "_shifted", counted_shifted)
    monkeypatch.setattr(poly_module, "_make", counted_make)
    return counts


CHART = Chart(("q1", "q2", "q3", "p1", "p2", "p3"))


def factors(rng, count):
    """``count`` factors: zeros, constants, monomials and sums of up to 6 terms."""
    pick = [lambda: Polynomial.zero(CHART),
            lambda: Polynomial.constant(CHART, Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
            lambda: rand_poly(rng, CHART, degree=3, nterms=1),
            lambda: rand_poly(rng, CHART, degree=3, nterms=rng.randint(2, 6))]
    return [rng.choice(pick)() for _ in range(count)]


def pairs_of(products):
    return sum(a.term_count() * b.term_count() for a, b, _ in products)


@pytest.mark.parametrize("size", [1, 4, 16, 64])
def test_fused_sum_multiplies_each_term_pair_once_into_one_polynomial(work, size):
    for seed in range(20):
        rng = random.Random(1000 * size + seed)
        a, b = factors(rng, 2 * size), factors(rng, 2 * size)
        products = [(x, y, rng.random() < 0.5) for x, y in zip(a, b)]
        work.clear()
        total = poly_module.sum_of_products(products, CHART)
        assert work["pairs"] == pairs_of(products)
        if work["built"] != 1:  # a lone product by the constant 1 is its other factor
            (x, y, negate), = products
            assert work["built"] == 0 and not negate and total in (x, y)
        assert work["terms"] <= work["pairs"]


def test_lone_negated_monomial_product_is_one_pass(work):
    # one polynomial of len(p) terms: the sign is folded into the monomial
    p = rand_poly(random.Random(7), CHART, degree=3, nterms=6)
    q1, _, _, p1, _, _ = coordinates(CHART)
    m = Fraction(-3, 2) * q1 ** 2 * p1
    for products in ([(p, m, True)], [(m, p, True)], [(p, -m, False)]):
        work.clear()
        poly_module.sum_of_products(products, CHART)
        assert work == {"pairs": p.term_count(), "built": 1, "terms": p.term_count()}


def test_product_multiplies_each_term_pair_once(work):
    rng = random.Random(3)
    polys = factors(rng, 40)
    for a, b in zip(polys[::2], polys[1::2]):
        work.clear()
        a * b
        assert work["pairs"] == a.term_count() * b.term_count()
    p = polys[-1] + 1
    for scalar in (2, Fraction(-1, 3), 0):
        work.clear()
        p * scalar
        assert work["pairs"] == (p.term_count() if scalar else 0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_collision_free_product_is_one_comprehension(work, monkeypatch, n):
    # factors of n terms whose exponent fields share no bit, the same
    # coordinate among them (q1^(4^j) on even bits, q1^(2*4^j) on odd
    # ones): one term pair per term and no pass of the general loop.  A
    # shared bit sends the product back to it, once
    calls = []
    add_product = poly_module._add_product
    monkeypatch.setattr(poly_module, "_add_product", lambda *args: calls.append(args) or add_product(*args))
    q1, q2, q3, p1, p2, p3 = coordinates(CHART)
    a = sum((q1 ** 4 ** j for j in range(n - 2)), q2 + q3)
    b = sum((q1 ** (2 * 4 ** j) * p1 ** j for j in range(n - 2)), 2 * p2 + Fraction(1, 2))
    assert a.term_count() == b.term_count() == n
    work.clear()
    calls.clear()
    value = a * b
    assert calls == [] and work == {"pairs": n * n, "built": 1, "terms": n * n}
    assert value.term_count() == n * n
    work.clear()
    (a + q1 ** 2) * b
    assert len(calls) == 1 and work["pairs"] == (n + 1) * n


TOKEN = re.compile(r"\d+|[A-Za-z]\w*|[-+*/^()]")


def test_parse_work_is_linear(work):
    # str((x1 + ... + x10 + 1)^k), k = 3..6: 286 to 8,008 terms and 2.1k to
    # 96k tokens, every term a monomial.  Each term is read into one
    # coefficient and one exponent record, so a parse multiplies no term
    # pair and builds one polynomial, the expression's sum: at most 0.2
    # polynomials per token, and in fact under 0.0005.
    chart = Chart(tuple(f"x{i}" for i in range(1, 11)))
    base = sum(coordinates(chart), Polynomial.constant(chart, 1))
    for k in range(3, 7):
        expected = base ** k
        text = str(expected)
        tokens = len(TOKEN.findall(text))
        work.clear()
        assert parse_expr(text, chart) == expected
        assert (work["pairs"], work["built"], work["terms"]) == (0, 1, expected.term_count())
        assert work["built"] <= 0.2 * tokens


@pytest.mark.parametrize("text, sign", [("(q1+1)*q1^3*p1", 1), ("(q1+1)*-q1^3*p1", -1),
                                        ("-(q1+1)*q1^2*q1*p1", -1)])
def test_literal_after_a_parenthesized_factor_is_its_own_monomial(monkeypatch, text, sign):
    # a coordinate literal is read by the term's one literal reader wherever
    # it stands: after a parenthesized factor it is one monomial multiplied
    # in, with no Polynomial.variable and no Polynomial.__pow__ call
    chart = Chart(("q1", "p1"))
    calls = Counter()
    variable, power = Polynomial.variable, Polynomial.__pow__

    def counted_variable(chart, name):
        calls["variable"] += 1
        return variable(chart, name)

    def counted_power(self, exponent):
        calls["pow"] += 1
        return power(self, exponent)

    monkeypatch.setattr(Polynomial, "variable", staticmethod(counted_variable))
    monkeypatch.setattr(Polynomial, "__pow__", counted_power)
    value = parse_expr(text, chart)
    monkeypatch.undo()
    assert calls == Counter()
    assert value == Polynomial(chart, {(4, 1): sign, (3, 1): sign})


@pytest.fixture
def printed_texts(monkeypatch):
    """A ``Counter`` of ``halves`` (``poly._half_text`` calls, each one half
    key's text) and ``leads`` (``poly._lead`` calls, each one coefficient's
    text)."""
    counts = Counter()
    half_text, lead = poly_module._half_text, poly_module._lead

    def counted_half_text(fields, names):
        counts["halves"] += 1
        return half_text(fields, names)

    def counted_lead(c):
        counts["leads"] += 1
        return lead(c)

    monkeypatch.setattr(poly_module, "_half_text", counted_half_text)
    monkeypatch.setattr(poly_module, "_lead", counted_lead)
    return counts


def distinct_texts(p):
    """``Counter(halves=..., leads=...)``: the distinct high halves plus the
    distinct low halves of ``p``'s exponents, and its distinct coefficients."""
    split = p.chart.dim // 2
    exponents = list(p.terms)
    return Counter(halves=len({e[:split] for e in exponents}) + len({e[split:] for e in exponents}),
                   leads=len({c for _, c in p.items()}))


def test_dense_product_prints_each_half_and_coefficient_once(printed_texts):
    # the 5,775 terms test_dense_product prints: 225 high and 135 low halves
    # and 43 distinct coefficients
    chart = Chart(("q1", "q2", "q3", "q4", "q5", "p1", "p2", "p3", "p4", "p5"))
    p = parse_expr("45*(q1+q3+p3+1)^8*(p1+q4+p4+1)^4", chart)
    str(p)
    assert printed_texts == distinct_texts(p)
    assert printed_texts == Counter(halves=225 + 135, leads=43)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_printing_builds_track_distinct_halves(printed_texts, n):
    # (q1 + q2 - 2*p1 + p2 + 1)^n has C(n+4, 4) terms (495 at n = 8) but
    # C(n+2, 2) high and as many low halves (45 each at n = 8)
    p = parse_expr(f"(q1 + q2 - 2*p1 + p2 + 1)^{n}", Chart(("q1", "q2", "p1", "p2")))
    str(p)
    assert printed_texts == distinct_texts(p)
    assert printed_texts["halves"] == 2 * math.comb(n + 2, 2) and p.term_count() == math.comb(n + 4, 4)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_wedge_chain_is_one_tensor(monkeypatch, n):
    # d(x_n)^...^d(x_1): one index list signed once, with no wedge and no
    # checked tensor constructor per factor
    chart = Chart(tuple(f"x{i}" for i in range(1, 11)))
    calls = Counter()
    wedge, init = exterior_module.wedge, exterior_module._Graded.__init__

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(exterior_module, "wedge", counted("wedge", wedge))
    monkeypatch.setattr(parsing_module, "wedge", counted("wedge", wedge), raising=False)
    monkeypatch.setattr(exterior_module._Graded, "__init__", counted("init", init))
    value = parse_tensor("^".join(f"d(x{i})" for i in range(n, 0, -1)), chart)
    monkeypatch.undo()
    assert calls == Counter()
    assert value == Form(chart, n, {tuple(range(n - 1, -1, -1)): 1})


def test_tensor_divided_by_a_scalar_makes_no_product(monkeypatch):
    # form / 2 multiplies each coefficient by the scalar 1/2 in one pass,
    # with no product by a constant polynomial
    omega = standard_form(CHART)
    calls = Counter()
    fused = poly_module.sum_of_products

    def counted(products, chart):
        calls["sum_of_products"] += 1
        return fused(products, chart)

    monkeypatch.setattr(poly_module, "sum_of_products", counted)
    monkeypatch.setattr(exterior_module, "sum_of_products", counted)
    half = omega / 2
    assert calls == Counter()
    assert half == omega * Fraction(1, 2)


@pytest.fixture
def partial_passes(monkeypatch):
    """A ``Counter`` of ``passes`` (``poly._partials`` calls) and ``terms``
    (the terms of the polynomials they read), counted on every route that
    reaches the kernel."""
    counts = Counter()
    partials = poly_module._partials

    def counted(p):
        counts["passes"] += 1
        counts["terms"] += p.term_count()
        return partials(p)

    for module in (poly_module, exterior_module, schouten_module):
        monkeypatch.setattr(module, "_partials", counted)
    return counts


@pytest.mark.parametrize("n", [2, 5, 10])
def test_differential_is_one_pass(partial_passes, n):
    # d f on an n-dim chart reads all n partials in one pass over f's terms
    chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
    f = sum(coordinates(chart), Polynomial.constant(chart, 1)) ** 2
    df = differential(f)
    assert partial_passes == Counter(passes=1, terms=f.term_count())
    assert df == Form(chart, 1, {(i,): f.diff(i) for i in range(n)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_bracket_is_one_pass_per_term(partial_passes, n):
    # is_poisson(L) reads each coefficient's partials once in all, as [L, L]
    # has b is a: one pass per term of L, not 2 * dim diff calls per term
    rng = random.Random(n)
    chart = darboux_chart(n)
    bivector = Multivector(chart, 2, {key: rand_nonzero_poly(rng, chart, degree=2, nterms=3)
                                      for key in combinations(range(2 * n), 2)})
    is_poisson(bivector)
    assert partial_passes["passes"] == len(bivector.terms) == n * (2 * n - 1)


def test_bracket_of_two_fields_is_one_pass_per_term(partial_passes):
    # [a, b] with b not a: one pass per term of each
    rng = random.Random(5)
    a, b = (rand_multivector(rng, CHART, grade) for grade in (1, 2))
    schouten(a, b)
    assert partial_passes["passes"] == len(a.terms) + len(b.terms)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_tensor_term_is_one_key_and_its_coefficient(monkeypatch, n):
    # a sum of n "(c) * e(x)" terms, and of n monomial-times-chain terms:
    # each chain takes its coefficient as its one term, with no tensor product
    chart = Chart(tuple(f"x{i}" for i in range(1, 12)))
    calls = Counter()
    graded = exterior_module._Graded

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(graded, "__mul__", counted("mul", graded.__mul__))
    monkeypatch.setattr(graded, "__rmul__", counted("mul", graded.__rmul__))
    field = parse_tensor(" + ".join(f"(x{i} + {i}) * e(x{i})" for i in range(1, n + 1)), chart)
    form = parse_tensor(" - ".join(f"{i}*x{i} * -d(x{i})^d(x1)" for i in range(2, n + 2)), chart)
    monkeypatch.undo()
    assert calls == Counter()
    x = coordinates(chart)
    assert field == Multivector(chart, 1, {(i - 1,): x[i - 1] + i for i in range(1, n + 1)})
    assert form == Form(chart, 2, {(0, i - 1): (i if i == 2 else -i) * x[i - 1] for i in range(2, n + 2)})


def level_products(monkeypatch):
    """One dict per level of each ``_Generator.wedge`` call made while it is
    patched in: for each merged tuple the level sums onto, the id of its
    table and the products ``poly._add_product`` adds into it.  Level 1's
    dict opens with ``merge_walk``, each later level's with ``poly._walk_level``."""
    levels = []
    walk, walk_level, add_product = exterior_module.merge_walk, poly_module._walk_level, poly_module._add_product

    def opening(function):
        def counted(*args):
            levels.append({})
            return function(*args)
        return counted

    def counted_add_product(out, large, small, negate):
        # every table of a level is alive until the level ends: one id each
        level = levels[-1]
        level[id(out)] = level.get(id(out), 0) + 1
        return add_product(out, large, small, negate)

    monkeypatch.setattr(exterior_module, "merge_walk", opening(walk))
    monkeypatch.setattr(poly_module, "_walk_level", opening(walk_level))
    monkeypatch.setattr(poly_module, "_add_product", counted_add_product)
    return levels


def walked_entries(target, forms):
    """Per level, the ``(key, i)`` extensions a wedge of ``forms`` onto the
    index tuples of ``target`` must walk: ``key`` a nonzero term of the wedge
    of the forms before, ``i`` an index of the level's form with a nonzero
    component, and ``key + (i,)`` inside a tuple of ``target``.  The walk
    stops after the first level whose wedge has no such term.  Also returns
    the set of every such ``key``, the partial wedges' keys the walk reads."""
    inside = {frozenset(s) for t in target.terms for r in range(len(t) + 1) for s in combinations(t, r)}

    def support(level):
        if not level:
            return [frozenset()]
        terms = wedge_all(forms[:level]).terms
        return [frozenset(key) for key, value in terms.items() if not value.is_zero() and frozenset(key) in inside]

    counts, keys = [], set()
    for level, form in enumerate(forms):
        walked = support(level)
        keys.update(tuple(sorted(key)) for key in walked)
        counts.append(sum(1 for key in walked for (i,), value in form.terms.items()
                          if not value.is_zero() and i not in key and key | {i} in inside))
        if not support(level + 1):
            break
    return counts, keys


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generator_wedge_hands_each_nonzero_entry_one_product(monkeypatch, k):
    # the divided power Lambda^k/k! of the 8-dim standard and magnetic forms:
    # level 1 takes the first form's coefficients and multiplies nothing, and
    # each later level adds one product per merge-table entry walked from a
    # nonzero sum with a nonzero form component.  The second function is the
    # first plus a sparse one, so some sums cancel to zero
    chart = darboux_chart(4)
    q = coordinates(chart)
    standard = standard_form(chart)
    magnetic = standard + Form(chart, 2, {(0, 1): -q[0], (0, 2): q[2], (1, 2): -q[1]})
    pairs_order = [q[i] for j in range(4) for i in (j, j + 4)]  # q1, p1, q2, p2, ...
    for name, omega in (("standard", standard), ("magnetic", magnetic)):
        generator = _divided_power(SymplecticData(omega), k)
        read = set()
        for seed in range(6):
            rng = random.Random(100 * k + seed)
            f = rand_poly(rng, chart, degree=2, nterms=5)
            functions = [f, f + rand_poly(rng, chart, degree=2, nterms=2)]
            functions += [rand_poly(rng, chart, degree=2, nterms=4) for _ in range(2 * k - 2)]
            forms = [differential(g) for g in functions]
            levels = level_products(monkeypatch)
            generator.wedge(forms)
            monkeypatch.undo()
            counts, keys = walked_entries(generator.target, forms)
            assert [sum(level.values()) for level in levels] == [0] + counts[1:], (name, seed)
            read |= keys
        # coordinate functions along the pairs: one product at each later level
        coordinate_forms = [differential(x) for x in pairs_order[:2 * k]]
        levels = level_products(monkeypatch)
        generator.wedge(coordinate_forms)
        monkeypatch.undo()
        assert [list(level.values()) for level in levels] == [[]] + [[1]] * (2 * k - 1), name
        read |= walked_entries(generator.target, coordinate_forms)[1]
        # the merge table holds the keys the walks read, and no other
        assert set(generator._table) == read, name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_pairing_builds_only_the_last_level(work, k):
    # the divided power of the 8-dim magnetic form paired with 2k random
    # functions: one polynomial per key of the full wedge on the target's
    # tuples, none for a partial wedge, and one for the sum.  A wedge of one
    # form is that form's own coefficients, and builds none.  (At k = 4 the
    # target is one top tuple, and a lone product by 1 builds no sum)
    chart = darboux_chart(4)
    q = coordinates(chart)
    omega = standard_form(chart) + Form(chart, 2, {(0, 1): -q[0], (0, 2): q[2], (1, 2): -q[1]})
    generator = _divided_power(SymplecticData(omega), k)
    for seed in range(6):
        rng = random.Random(200 * k + seed)
        forms = [differential(rand_poly(rng, chart, degree=2, nterms=10)) for _ in range(2 * k)]
        full = wedge_all(forms).terms
        last = [full[key] for key in generator.target.terms if key in full]
        assert len(last) > 1  # so the sum is one fused sum of several products
        work.clear()
        value = generator.pair(forms)
        assert work["built"] == len(last) + 1, seed
        assert work["terms"] == sum(p.term_count() for p in last) + value.term_count(), seed
        work.clear()
        first = generator.wedge(forms[:1])
        assert work["built"] == 0 and first and all(c is forms[0].terms[(i,)] for (i,), c in first.items()), seed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_pairing_builds_one_polynomial(work, k):
    # the divided power of the 8-dim standard form, whose targets are all
    # +-1, paired with 2k random functions: the last level is folded into
    # one table, so the pairing builds its result and nothing else
    chart = darboux_chart(4)
    generator = _divided_power(SymplecticData(standard_form(chart)), k)
    for seed in range(6):
        rng = random.Random(300 * k + seed)
        forms = [differential(rand_poly(rng, chart, degree=2, nterms=10)) for _ in range(2 * k)]
        work.clear()
        value = generator.pair(forms)
        assert not value.is_zero()
        assert work["built"] == 1 and work["terms"] == value.term_count(), seed


@pytest.mark.parametrize("m", [12, 16, 20])
def test_top_arity_bracket_fills_one_key_per_level(m):
    # the 0-form x0 + 1 against the volume: one top tuple, paired with the
    # coordinates' differentials.  Each level reads one key, the coordinates
    # taken so far, whose entries are the m - j indices left: m keys and
    # m(m+1)/2 entries, where a table of every subset would hold m*2^(m-1)
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    x = coordinates(chart)
    bdef = BracketDef(Form(chart, m, {tuple(range(m)): 1}), Form.from_polynomial(x[0] + 1))
    assert bracket(bdef, *x) == x[0] + 1
    table = bdef._pairing._table
    assert sorted(table) == [tuple(range(j)) for j in range(m)]
    assert sum(len(entries) for entries in table.values()) == m * (m + 1) // 2


@pytest.mark.parametrize("m", [6, 8, 10, 14])
def test_triangular_nambu_wedge_has_one_partial_key_per_step(monkeypatch, m):
    # functions triangular in a shuffled coordinate order, each its own
    # coordinate plus quadratics in the coordinates after it, as in the
    # scenario corpus's nambu tasks.  In fewest-new-indices order each of
    # the m - 1 wedges returns one key; in the given order the partial
    # wedges are sums over many index tuples
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    x = coordinates(chart)
    rng = random.Random(m)
    order = rng.sample(range(m), m)
    functions = []
    for i, lead in enumerate(order):
        later = order[i + 1:]
        functions.append(sum((rng.choice((1, 2, -1)) * x[rng.choice(later)] * x[rng.choice(later)]
                              for _ in range(2 if later else 0)), x[lead]))
    keys = []
    wedge = exterior_module.wedge

    def recorded(a, b):
        result = wedge(a, b)
        keys.append(len(result.terms))
        return result

    monkeypatch.setattr(exterior_module, "wedge", recorded)
    gamma = x[0] + 2
    value = nambu_top_bracket(Form(chart, m, {tuple(range(m)): 3}), gamma, *functions)
    monkeypatch.undo()
    assert keys == [1] * (m - 1)
    assert value == gamma * Fraction(permutation_sign(order)[1], 3)


def test_constant_quotient_divides_nothing(monkeypatch):
    # as_constant accepts the ratio of the leading coefficients by two
    # products by ints; only a quotient that is not a constant divides
    chart = darboux_chart(2)
    q1, q2, p1, p2 = coordinates(chart)
    den = Fraction(2, 3) * q1 * p2 - q2 + 5
    calls = []
    divide = poly_module.exact_divide

    def counted(a, b):
        calls.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(poly_module, "exact_divide", counted)
    for c in (Fraction(3, 2), 1, -1, Fraction(-7, 5), 4):
        assert RationalExpr(den * c, den).as_constant() == c
    assert calls == []
    with pytest.raises(NotDivisible):
        RationalExpr(den + 1, den).as_constant()
    assert len(calls) == 1


def _sizes(monkeypatch, name):
    """The sizes ``poly.<name>``, a sweep, is called with, one per call."""
    sizes = []
    sweep = getattr(poly_module, name)

    def counted(upper, m, *chart):
        sizes.append(m)
        return sweep(upper, m, *chart)

    monkeypatch.setattr(poly_module, name, counted)
    return sizes


@pytest.fixture
def sweeps(monkeypatch):
    """The sizes ``poly._pfaffian_sweep`` is called with, one per call."""
    return _sizes(monkeypatch, "_pfaffian_sweep")


@pytest.fixture
def polynomial_sweeps(monkeypatch):
    """The sizes ``poly._polynomial_sweep`` is called with, one per call."""
    return _sizes(monkeypatch, "_polynomial_sweep")


def test_one_sweep_per_constant_form_per_run(sweeps):
    # four commands that each read the inverse bivector of one dense constant
    # 6-dim form share the run's one inversion of it
    omega = dense_constant_form(6, 5)
    text = (f"[chart]\nx1 x2 x3 x4 x5 x6\n\n[define]\nomega = {omega}\n\n[tasks]\n"
            "pb = power-bracket omega k=1 x1 x2\nvf = derived-vf omega k=1 x3\n"
            "jac = check-jacobi omega x1 x4 x5 expect 0\npoisson = check-poisson omega expect true\n")
    outcomes = run_scenario(parse_scenario_text(text)).outcomes
    assert [o.status for o in outcomes] == ["done", "done", "ok", "ok"]
    assert sweeps == [6]
    bivector = SymplecticData(omega).bivector
    assert outcomes[0].result_text == str(bivector.coefficient((0, 1)))


@pytest.mark.parametrize("m", [6, 8, 10, 16])
def test_constant_form_builds_one_polynomial_per_inverse_entry(work, sweeps, m):
    # SymplecticData on a dense constant form: one sweep, and each nonzero
    # entry of -M^-1 above the diagonal is one polynomial built, with no
    # product, adjugate or scaling by -1/det
    omega = dense_constant_form(m, m)
    work.clear()
    bivector = SymplecticData(omega).bivector
    assert sweeps == [m]
    assert work == {"built": len(bivector.terms), "terms": len(bivector.terms)}
    assert len(bivector.terms) > m * (m - 1) // 4


def test_one_sweep_per_polynomial_form_per_run(sweeps, polynomial_sweeps):
    # the same four commands on a closed 6-dim magnetic form, whose matrix
    # has polynomial entries, share the run's one sweep over Q[x]
    chart = darboux_chart(3)
    q1, q2, q3 = coordinates(chart)[:3]
    omega = magnetic_form(chart, q2 * q3, q1 * q3, q1 * q2)
    text = (f"[chart]\nq1 q2 q3 p1 p2 p3\n\n[define]\nomega = {omega}\n\n[tasks]\n"
            "pb = power-bracket omega k=1 p1 p2\nvf = derived-vf omega k=1 q3\n"
            "jac = check-jacobi omega q1 p1 p2 expect 0\npoisson = check-poisson omega expect true\n")
    outcomes = run_scenario(parse_scenario_text(text)).outcomes
    assert [o.status for o in outcomes] == ["done", "done", "ok", "ok"]
    assert polynomial_sweeps == [6] and sweeps == []
    bivector = SymplecticData(omega).bivector
    assert outcomes[0].result_text == str(bivector.coefficient((3, 4))) == "q1*q2"


@pytest.mark.parametrize("half", [1, 2])
def test_one_sweep_per_constraint_set(polynomial_sweeps, half):
    # constraints (q_j, (1 + q_{j-1}) * p_j) for the last ``half`` pairs:
    # a polynomial bracket matrix, swept once when the set is built and
    # never again by its brackets
    sym = SymplecticData(standard_form(darboux_chart(2 * half)))
    xs = coordinates(sym.chart)
    constraints = []
    for j in range(half, 2 * half):
        constraints += [xs[j], (1 + xs[j - half]) * xs[2 * half + j]]
    cs = ConstraintSet(sym, constraints)
    assert not cs.determinant.is_constant()
    assert polynomial_sweeps == [2 * half]
    f, g = xs[0] * xs[2 * half], xs[2 * half] + xs[half] * xs[3 * half]
    dirac_bracket_matrix(cs, f, g)
    dirac_bracket_form(cs, f, g)
    assert polynomial_sweeps == [2 * half]


def test_term_weighted_pivots_divide_by_no_polynomial(monkeypatch):
    # the 18-dim pulled-back form of seed 0: ordering the constant pivots by
    # the terms in their two columns keeps every p a constant, so the sweep
    # never calls exact_divide; ordering them by nonzero entries divides by
    # a polynomial p hundreds of times
    chart = darboux_chart(9)
    _, omega = pulled_back_form(random.Random(18000), chart, 3, 3)
    calls = []
    divide = poly_module.exact_divide

    def counted(a, b):
        calls.append(b)
        return divide(a, b)

    monkeypatch.setattr(poly_module, "exact_divide", counted)
    terms = poly_module._negated_inverse(omega.terms, 18, chart)
    assert calls == []
    assert len(terms) == 128


@pytest.fixture
def sweep_work(monkeypatch):
    """A function returning ``(steps, divisors)`` for the
    ``poly._polynomial_sweep`` calls so far: the number of
    ``poly.sum_of_products`` calls in each step, told apart by their first
    product's first factor, the step's pivot (held in a list, so no two
    share an ``id``), and the divisor of each ``poly.exact_divide`` call the
    sweeps made."""
    pivots, divisors, active = [], [], []
    sweep, fused, divide = poly_module._polynomial_sweep, poly_module.sum_of_products, poly_module.exact_divide

    def counted_sweep(*args):
        active.append(True)
        try:
            return sweep(*args)
        finally:
            active.pop()

    def counted_sum(products, chart):
        if active:
            pivots.append(products[0][0])
        return fused(products, chart)

    def counted_divide(a, b):
        if active:
            divisors.append(b)
        return divide(a, b)

    monkeypatch.setattr(poly_module, "_polynomial_sweep", counted_sweep)
    monkeypatch.setattr(poly_module, "sum_of_products", counted_sum)
    monkeypatch.setattr(poly_module, "exact_divide", counted_divide)
    return lambda: ([len(list(run)) for _, run in groupby(pivots, key=id)], divisors)


def test_polynomial_sweep_updates_each_pair_once(sweep_work):
    # a dense 8x8 matrix of non-constant entries: each of the 4 steps makes
    # one fused sum per unordered pair off its pivots, C(6, 2) = 15, and
    # after the first step each of them is one exact division by p
    rng = random.Random(8)
    chart = Chart(("x", "y"))

    def entry():
        while (x := rand_poly(rng, chart, degree=2, nterms=3)).is_constant():
            pass
        return x

    upper = {pair: entry() for pair in combinations(range(8), 2)}
    p, block = poly_module._polynomial_sweep(upper, 8, chart)
    steps, divisors = sweep_work()
    assert steps == [15, 15, 15, 15]
    assert len(divisors) == 45 and not p.is_constant()
    assert all(not block[i][j].is_zero() for i, j in combinations(range(8), 2))


def test_constraint_matrix_divides_once(sweep_work):
    # the 4-constraint matrix (q2, p2 + q1*p2, q3, p3 + q1*p3), with no
    # constant entry: each step updates the one pair off its pivots, and the
    # second divides once, by the first pivot -q1 - 1
    chart = darboux_chart(3)
    q1, q2, q3, _, p2, p3 = coordinates(chart)
    cs = ConstraintSet(SymplecticData(standard_form(chart)), [q2, p2 + q1 * p2, q3, p3 + q1 * p3])
    steps, divisors = sweep_work()
    assert steps == [1, 1] and divisors == [-q1 - 1]
    assert cs.determinant == (q1 + 1) ** 4
