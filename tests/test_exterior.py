import random
from fractions import Fraction
from itertools import combinations, permutations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formcalc import (
    AlgebraError,
    Chart,
    ConstraintSet,
    DegenerateStructure,
    DegreeOverflow,
    Form,
    GradeMismatch,
    InvalidArgument,
    KindMismatch,
    Multivector,
    NotClosed,
    Polynomial,
    SymplecticData,
    contract,
    coordinate_field,
    coordinate_form,
    coordinates,
    darboux_chart,
    derived_vf,
    differential,
    exterior_derivative,
    form_power,
    hamiltonian_vf,
    lie_derivative,
    magnetic_form,
    mv_from_form,
    pair,
    poisson_bivector,
    schouten,
    standard_form,
    wedge,
)
from formcalc import exterior, poly

from formcalc.brackets import _divided_power

from tests.helpers import (chained_wedge, fraction_gauss_jordan, legacy_generator_wedge, permutation_sign,
                           pulled_back_form, qp, rand_form, rand_multivector, rand_poly)
from tests.test_poly import (coprime_entries, integer_entries, singular_constant_skew_matrices,
                             skew_matrices, wide_sizes)

C2 = darboux_chart(1)  # (q1, p1)
C4 = darboux_chart(2)
C8 = darboux_chart(4)


def dense_constant_form(m: int, seed: int) -> Form:
    """A constant 2-form on an ``m``-dim chart, every upper entry a nonzero
    fraction ``a/b`` with ``a`` in -4..4 and ``b`` in 1..3."""
    rng = random.Random(seed)
    chart = Chart([f"x{i}" for i in range(1, m + 1)])
    entries = (-4, -3, -2, -1, 1, 2, 3, 4)
    return Form(chart, 2, {(i, j): Fraction(rng.choice(entries), rng.randint(1, 3))
                           for i in range(m) for j in range(i + 1, m)})


def constant_form(values) -> Form:
    """The constant 2-form whose coefficient matrix is the skew ``values``."""
    m = len(values)
    chart = Chart([f"x{i}" for i in range(1, m + 1)])
    return Form(chart, 2, {(i, j): values[i][j] for i in range(m) for j in range(i + 1, m)
                           if values[i][j]})


def gauss_jordan_bivector(omega: Form) -> Multivector | None:
    """The upper triangle of ``-M^-1`` for the constant coefficient matrix
    ``M`` of ``omega``, by ``fraction_gauss_jordan``; ``None`` when ``M`` is
    singular."""
    m = omega.chart.dim
    values = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), coefficient in omega.terms.items():
        values[i][j] = coefficient.constant_value()
        values[j][i] = -values[i][j]
    inverse = fraction_gauss_jordan(values)[1]
    if inverse is None:
        return None
    return Multivector(omega.chart, 2, {(i, j): -inverse[i][j] for i in range(m) for j in range(i + 1, m)
                                        if inverse[i][j]})


def d(name, chart=C2):
    return coordinate_form(chart, name)


def e(name, chart=C2):
    return coordinate_field(chart, name)


class TestWedge:
    def test_square_vanishes(self):
        assert wedge(d("q1"), d("q1")).is_zero()

    def test_basis_product(self):
        assert wedge(d("q1"), d("p1")) == Form(C2, 2, {(0, 1): 1})

    def test_antisymmetry(self):
        assert wedge(d("p1"), d("q1")) == -wedge(d("q1"), d("p1"))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            wedge(d("q1"), e("p1"))

    def test_graded_commutativity(self):
        rng = random.Random(11)
        for ga in (0, 1, 2, 3):
            for gb in (0, 1, 2):
                a = rand_form(rng, C4, ga)
                b = rand_form(rng, C4, gb)
                sign = -1 if (ga * gb) % 2 else 1
                assert wedge(a, b) == wedge(b, a) * sign

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(10):
            a = rand_form(rng, C4, 1)
            b = rand_form(rng, C4, 1)
            c = rand_form(rng, C4, 1)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def sparse_factor(rng, cls, chart: Chart, grade: int):
    """A ``Form`` or ``Multivector`` (``cls``) whose index tuples lie in a
    random few coordinates, so that factors differ in support; zero one time
    in eight."""
    if rng.random() < 0.125:
        return cls.zero(chart, grade)
    support = sorted(rng.sample(range(chart.dim), rng.randint(grade, chart.dim)))
    return cls(chart, grade, {key: rand_poly(rng, chart, degree=1, nterms=2)
                              for key in combinations(support, grade) if rng.random() < 0.7})


class TestWedgeOrder:
    """``wedge_all`` against the left-to-right chain of ``wedge``: the same
    tensor in any factor order it picks, and the same errors."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from((Form, Multivector)),
           st.lists(st.sampled_from((0, 1, 1, 1, 2, 3)), min_size=1, max_size=6))
    def test_matches_the_chain(self, rng, cls, grades):
        factors = [sparse_factor(rng, cls, C8, grade) for grade in grades]
        result = exterior.wedge_all(factors)
        expected = chained_wedge(factors)
        assert result == expected and result.grade == expected.grade and type(result) is cls

    @pytest.mark.parametrize("factors, order, odd", [
        # d(q1) adds one index to the two of d(q1) + d(p1): one inverted pair of 1-forms
        ([d("q1", C4) + d("p1", C4), d("q1", C4)], [1, 0], True),
        # a 2-form moved past a 1-form: an inverted pair of even sign
        ([d("q1", C4) + d("q2", C4) + d("p1", C4), wedge(d("q1", C4), d("q2", C4))], [1, 0], False),
        # a triangular Jacobian in reverse: three inverted pairs
        ([d("q1", C4) + d("q2", C4) + d("p1", C4), d("q2", C4) + d("p1", C4), d("p1", C4)], [2, 1, 0], True),
        # a zero factor covers nothing and goes first; ties keep their order
        ([d("q1", C4), d("q2", C4), Form.zero(C4, 1)], [2, 0, 1], False),
        ([d("q1", C4), d("q2", C4)], [0, 1], False),
    ])
    def test_order_and_sign(self, factors, order, odd):
        assert exterior._fewest_new_indices(factors) == (order, odd)
        assert exterior.wedge_all(factors) == chained_wedge(factors)

    def test_single_factor_is_itself(self):
        a = d("q1", C4) + d("p1", C4)
        assert exterior.wedge_all([a]) is a

    @pytest.mark.parametrize("factors", [
        [d("q1"), e("p1")],
        [e("p1"), d("q1")],
        [d("q1"), d("p1"), e("q1")],
        [d("q1"), d("p1", C4)],
        [d("q1", C4) + d("p1", C4), d("q2", C4), d("q1")],
        [d("q1"), 5],
        [5, d("q1")],
        [],
        d("q1"),
    ], ids=["form-field", "field-form", "third-field", "chart", "chart-after-reorder", "int", "int-first",
            "empty", "not-a-list"])
    def test_errors_match_the_chain(self, factors):
        with pytest.raises(AlgebraError) as expected:
            chained_wedge(factors)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            exterior.wedge_all(factors)


@pytest.mark.parametrize("build, message", [
    (lambda: Form(C2, 2, {(0,): 1}), "index tuple length must equal the grade"),
    (lambda: d("q1") + wedge(d("q1"), d("p1")), "cannot add tensors of different grades"),
])
def test_grade_error_message(build, message):
    with pytest.raises(GradeMismatch) as err:
        build()
    assert str(err.value) == message


Q1 = coordinates(C4)[0]


@pytest.mark.parametrize("coefficient, text", [
    (1, "d(q1)"),
    (-1, "-d(q1)"),
    (Fraction(3, 2), "3/2 * d(q1)"),
    (Fraction(-3, 2), "-3/2 * d(q1)"),
    (Q1, "q1 * d(q1)"),
    (-2 * Q1, "-2*q1 * d(q1)"),
    (Q1 - 1, "(q1 - 1) * d(q1)"),
    (1 - Q1, "(-q1 + 1) * d(q1)"),
])
def test_coefficient_prints_as_its_polynomial(coefficient, text):
    # the sign leads the term, a unit coefficient is dropped, a sum is parenthesized
    assert str(Form(C4, 1, {(0,): coefficient})) == text
    assert str(Multivector(C4, 1, {(0,): coefficient})) == text.replace("d(", "e(")
    rest = text.replace("d(q1)", "d(p2)")  # the same coefficient on a later term
    later = f"d(q1) - {rest[1:]}" if rest.startswith("-") else f"d(q1) + {rest}"
    assert str(Form(C4, 1, {(0,): 1, (3,): coefficient})) == later


def test_terms_print_with_their_signs():
    form = Form(C4, 2, {(0, 1): 1, (0, 2): Fraction(-3, 2), (1, 3): -2 * Q1, (2, 3): 1 - Q1})
    assert str(form) == "d(q1)^d(q2) - 3/2 * d(q1)^d(p1) - 2*q1 * d(q2)^d(p2) + (-q1 + 1) * d(p1)^d(p2)"


class TestExteriorDerivative:
    def test_coefficient_times_basis(self):
        q1, p1 = coordinates(C2)
        a = Form(C2, 1, {(1,): q1})  # q1 * dp1
        assert exterior_derivative(a) == Form(C2, 2, {(0, 1): 1})

    def test_d_squared_zero(self):
        rng = random.Random(13)
        for grade in (0, 1, 2, 3):
            a = rand_form(rng, C4, grade)
            assert exterior_derivative(exterior_derivative(a)).is_zero()

    def test_magnetic_closedness_tracks_divergence(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        solenoidal = magnetic_form(chart, qs[1], qs[2], qs[0])
        assert exterior_derivative(solenoidal).is_zero()
        zero = Polynomial.zero(chart)
        divergent = magnetic_form(chart, qs[0], zero, zero)
        assert not exterior_derivative(divergent).is_zero()


class TestMergeRule:
    """``_merge_sign`` is the one merge rule: tuple normalization folds it,
    ``d`` merges through it, and every entry of the generator's merge table
    carries its sign.  Each is checked against ``permutation_sign``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), max_size=6))
    def test_normalization_is_the_permutation_sign(self, seq):
        expected = (None, 0) if len(set(seq)) < len(seq) else permutation_sign(seq)
        assert exterior._normalize_index_tuple(seq, 8) == expected
        assert exterior._normalize_index_tuple(tuple(seq), 8) == expected

    @given(st.lists(st.integers(0, 7), max_size=5), st.integers(0, 5),
           st.one_of(st.integers(-9, -1), st.integers(8, 20)))
    def test_out_of_range_entry_raises(self, seq, at, bad):
        seq.insert(min(at, len(seq)), bad)
        with pytest.raises(InvalidArgument, match=r"coordinate indices must be ints in 0\.\.7"):
            exterior._normalize_index_tuple(seq, 8)

    def test_three_index_rows(self):
        chart = Chart(("x", "y", "z"))
        x = Polynomial.variable(chart, "x")
        assert Form(chart, 3, {(2, 1, 0): x}).coefficient((0, 1, 2)) == -x
        assert Multivector(chart, 3, {(1, 2, 0): x}).terms == {(0, 1, 2): x}

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(4, 8), st.integers(1, 4),
           st.sampled_from((0.0, 0.1, 0.4, 1.0)))
    def test_generator_table(self, rng, dim, grade, density):
        chart = Chart(tuple(f"x{i}" for i in range(dim)))
        target = rand_multivector(rng, chart, grade, density)
        generator = exterior._Generator(target)
        table = generator._table
        assert table == {}  # filled only as walks reach its keys
        # every (j+1)-subset of a target tuple, once under each j-subset it extends
        expected = {}
        for tuple_ in target.terms:
            for j in range(grade):
                for merged in combinations(tuple_, j + 1):
                    for i in merged:
                        expected.setdefault(tuple(k for k in merged if k != i), set()).add((i, merged))
        assert {len(key) for key in expected} == (set(range(grade)) if target.terms else set())
        for key in expected:  # the walks' accessor, and what it stores
            entries = generator._fill(key)
            assert table[key] == entries
            assert len(entries) == len(expected[key])
            assert {(i, merged) for i, merged, _ in entries} == expected[key]
            for i, merged, odd in entries:
                assert type(odd) is bool
                assert exterior._merge_sign(key, (i,)) == (merged, -1 if odd else 1)
        assert set(table) == expected.keys()
        for r in range(grade + 1):
            for key in combinations(range(dim), r):
                if key not in expected:
                    assert generator._fill(key) == []

    def test_zero_generator(self):
        chart = darboux_chart(2)
        q1, q2, p1, _ = coordinates(chart)
        generator = exterior._Generator(Multivector.zero(chart, 2))
        assert generator.pair([differential(q1 * p1), differential(q2)]) == Polynomial.zero(chart)
        assert generator.field([differential(q1 * p1)]) == Multivector.zero(chart, 1)

    def test_fill_stores_only_whole_lists(self, monkeypatch):
        # generators are shared, so a walk may read a key another walk is
        # filling: while a key's entries are being signed, its list is not stored
        chart = darboux_chart(3)
        generator = exterior._Generator(rand_multivector(random.Random(5), chart, 3, 1.0))
        merge_sign = exterior._merge_sign
        signed = []

        def signing(left, right):
            assert left not in generator._table
            signed.append(left)
            return merge_sign(left, right)

        monkeypatch.setattr(exterior, "_merge_sign", signing)
        generator.field([differential(x) for x in coordinates(chart)[:2]])
        assert signed and set(signed) == set(generator._table)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(0, 5))
    def test_exterior_derivative_formula(self, rng, dim, grade):
        # d(c dx_K) = sum_i dc/dx_i dx_i ^ dx_K, sorted by permutation_sign
        chart = Chart(tuple(f"x{i}" for i in range(dim)))
        a = rand_form(rng, chart, min(grade, dim))
        expected = {}
        for key, c in a.terms.items():
            for i in range(dim):
                if i not in key:
                    merged, sign = permutation_sign((i,) + key)
                    expected[merged] = expected.get(merged, Polynomial.zero(chart)) + c.diff(i) * sign
        assert exterior_derivative(a).terms == {k: v for k, v in expected.items() if not v.is_zero()}


def magnetic_form_on(rng, chart: Chart) -> Form:
    """The standard form plus ``dq1 ^ dg``, ``g`` a random quadratic in the
    q's alone: closed on any Darboux chart, its matrix of determinant 1."""
    qs, _ = qp(chart)
    g = Polynomial.zero(chart)
    for _ in range(3):
        g = g + rng.choice((-2, -1, 1, 2)) * rng.choice(qs) * rng.choice(qs)
    return standard_form(chart) + wedge(differential(qs[0]), differential(g))


class TestMergeWalkOracle:
    """``_Generator.wedge``, the walk of ``poly.merge_walk`` in packed tables,
    against the level loop before it, ``legacy_generator_wedge``: key for key
    equal values and degree bounds, every integral coefficient an ``int``, in
    the same order, read off the same merge-table keys."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 5),
           st.sampled_from(("standard", "magnetic", "pulled back")), st.integers(1, 5),
           st.sampled_from((None, "repeat", "perturb")))
    def test_walk_matches_the_level_loop(self, rng, n, kind, k, twin):
        # divided powers Lambda^k/k! of 4-10-dim forms.  Halves and doubles
        # among the arguments' scales give Fraction sums that settle to ints;
        # a repeated argument empties the walk at a middle level, and one
        # perturbed by a monomial cancels some of its sums there
        chart = darboux_chart(n)
        k = min(k, n)
        omega = (standard_form(chart) if kind == "standard" else magnetic_form_on(rng, chart)
                 if kind == "magnetic" else pulled_back_form(rng, chart)[1])
        target = _divided_power(SymplecticData(omega), k).target
        scales = (1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
        functions = [rand_poly(rng, chart, degree=2, nterms=3) * rng.choice(scales) for _ in range(2 * k)]
        if twin is not None:
            i, j = sorted(rng.sample(range(2 * k), 2))
            functions[j] = functions[i]
            if twin == "perturb":
                functions[j] = functions[j] + rand_poly(rng, chart, degree=2, nterms=1)
        forms = [differential(f) for f in functions]
        walked, looped = exterior._Generator(target), exterior._Generator(target)
        new, old = walked.wedge(forms), legacy_generator_wedge(looped, forms)
        assert list(new) == list(old)
        for key, value in old.items():
            assert new[key] == value and new[key]._degree == value._degree, key
            assert all(type(x) is int or x.denominator != 1 for x in new[key]._terms.values()), key
        assert list(walked._table) == list(looped._table)

    def test_repeated_argument_stops_the_walk(self):
        # df ^ dg ^ df: level 3 cancels everywhere, so no level-3 key is read
        chart = darboux_chart(3)
        q1, q2, q3, p1, p2, p3 = coordinates(chart)
        f, g = Fraction(1, 2) * q1 * p2 + 2 * q3, q2 * p1 - Fraction(3, 2) * p3 ** 2
        target = _divided_power(SymplecticData(standard_form(chart)), 2).target
        walked, looped = exterior._Generator(target), exterior._Generator(target)
        forms = [differential(x) for x in (f, g, f, g)]
        assert walked.wedge(forms) == legacy_generator_wedge(looped, forms) == {}
        assert list(walked._table) == list(looped._table)
        assert {len(key) for key in walked._table} == {0, 1, 2}

    def test_degree_overflow_at_a_cancelling_level(self):
        # df ^ df cancels, but the bounds of its products reach 2^32 first, so
        # both walks raise, as the fused sum of those products does
        chart = darboux_chart(2)
        f = Polynomial(chart, {(2 ** 31, 0, 1, 0): 1})
        target = _divided_power(SymplecticData(standard_form(chart)), 1).target
        for walk in (exterior._Generator.wedge, legacy_generator_wedge):
            with pytest.raises(DegreeOverflow):
                walk(exterior._Generator(target), [differential(f)] * 2)


class TestFoldedPairingOracle:
    """``_Generator.pair`` on a target of constant coefficients, whose last
    walk level ``poly.merge_pairing`` folds into one table, against the
    route it replaced there and still takes for a polynomial target, the
    fused sum of ``_Generator.products``."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.sampled_from(("standard", "scaled", "dense")),
           st.integers(1, 3), st.booleans())
    def test_matches_the_fused_sum(self, rng, n, kind, k, cancel):
        # divided powers Lambda^k/k! of constant 2-8-dim forms: the standard
        # one (targets +-1), d(p_j)^d(q_j) scaled by 1/2..3 (targets like
        # 2/3) and dense fractional ones.  With ``cancel`` the last argument
        # is a multiple of the first, so every pairing cancels to zero
        chart = darboux_chart(n)
        k = min(k, n)
        scales = (1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
        if kind == "standard":
            omega = standard_form(chart)
        elif kind == "scaled":
            omega = Form(chart, 2, {(j, n + j): -rng.choice(scales) for j in range(n)})
        else:
            entries = (-4, -3, -2, -1, 1, 2, 3, 4)
            omega = Form(chart, 2, {(i, j): Fraction(rng.choice(entries), rng.randint(1, 3))
                                    for i, j in combinations(range(2 * n), 2)})
        try:
            sym = SymplecticData(omega)
        except DegenerateStructure:
            return
        generator = _divided_power(sym, k)
        assert generator._weights == {key: c.constant_value() for key, c in generator.target.terms.items()}
        functions = [rand_poly(rng, chart, degree=2, nterms=3) * rng.choice(scales) for _ in range(2 * k)]
        if cancel:
            functions[-1] = functions[0] * rng.choice(scales)
        forms = [differential(f) for f in functions]
        folded = generator.pair(forms)
        oracle = poly.sum_of_products(exterior._Generator(generator.target).products(forms), chart)
        assert folded == oracle and folded.chart is chart
        assert folded._degree >= oracle._degree
        assert all(folded._terms.values())
        assert all(type(x) is int or x.denominator != 1 for x in folded._terms.values())
        if cancel:
            assert folded.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6))
    def test_one_form_on_a_constant_field(self, rng, dim):
        # a lone level is paired from the constant 1 on the empty tuple
        chart = Chart([f"x{i}" for i in range(dim)])
        values = (1, -1, 2, Fraction(-2, 3), Fraction(3, 2))
        target = Multivector(chart, 1, {(i,): rng.choice(values) for i in range(dim) if rng.random() < 0.7})
        generator = exterior._Generator(target)
        f = rand_poly(rng, chart, degree=3, nterms=4) * rng.choice((1, Fraction(3, 2)))
        value = generator.pair([differential(f)])
        assert value == poly.sum_of_products(generator.products([differential(f)]), chart)
        assert all(type(x) is int or x.denominator != 1 for x in value._terms.values())

    def test_fractional_targets(self):
        # d(p1)^d(q1) + 3/2 * d(p2)^d(q2): targets -1 and -2/3 at k = 1 and
        # -2/3 at k = 2, so each sign is folded and 2/3 scales a factor
        chart = darboux_chart(2)
        q1, q2, p1, p2 = coordinates(chart)
        omega = Form(chart, 2, {(0, 2): -1, (1, 3): Fraction(-3, 2)})
        sym = SymplecticData(omega)
        one, two = _divided_power(sym, 1), _divided_power(sym, 2)
        assert one._weights == {(0, 2): -1, (1, 3): Fraction(-2, 3)}
        assert two._weights == {(0, 1, 2, 3): Fraction(-2, 3)}
        f, g = q1 * q2 + Fraction(3, 2) * p2 ** 2, p1 * p2 - 2 * q2
        expected = -(q2 * p2) - Fraction(2, 3) * q1 * p1 - 4 * p2
        assert one.pair([differential(f), differential(g)]) == expected
        assert one.pair([differential(g), differential(f)]) == -expected
        assert two.pair([differential(x) for x in (q1, q2, p1, p2)]) == Fraction(-2, 3)
        assert two.pair([differential(x) for x in (q1, q2, p1, q1 + p2)]) == Fraction(-2, 3)
        assert two.pair([differential(x) for x in (q1, q2, p1, q1)]).is_zero()

    def test_polynomial_targets_keep_the_fused_sum(self):
        chart = darboux_chart(2)
        q1, q2, p1, p2 = coordinates(chart)
        magnetic = standard_form(chart) + Form(chart, 2, {(0, 1): -q1})
        assert _divided_power(SymplecticData(magnetic), 1)._weights is None
        assert exterior._Generator(Multivector(chart, 1, {(0,): q2, (1,): 1}))._weights is None
        assert exterior._Generator(Multivector.zero(chart, 2))._weights == {}


class TestFormPower:
    def test_binomial_expansion(self):
        omega = standard_form(C4)
        block = wedge(
            wedge(d("p1", C4), d("q1", C4)), wedge(d("p2", C4), d("q2", C4))
        )
        assert form_power(omega, 2) == block * 2

    def test_magnetic_cube_collapses(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        omega_b = magnetic_form(chart, qs[1], qs[2], qs[0])
        assert form_power(omega_b, 3) == form_power(standard_form(chart), 3)

    def test_power_beyond_top_vanishes(self):
        omega = standard_form(C4)
        assert form_power(omega, 3).is_zero()


class TestContract:
    def test_counts_pairs(self):
        omega = standard_form(C4)
        lam = poisson_bivector(omega)
        assert contract(lam, omega) == Form.from_polynomial(Polynomial.constant(C4, 2))

    def test_on_square(self):
        omega = standard_form(C4)
        lam = poisson_bivector(omega)
        assert contract(lam, form_power(omega, 2)) == omega * 2

    def test_single_direction(self):
        a = wedge(d("q1"), d("p1"))
        assert contract(e("q1"), a) == d("p1")

    def test_grade_guard(self):
        with pytest.raises(GradeMismatch):
            contract(Multivector(C2, 2, {(0, 1): 1}), d("q1"))

    def test_antiderivation(self):
        rng = random.Random(14)
        for ga in (1, 2):
            for gb in (1, 2):
                x = rand_multivector(rng, C4, 1)
                a = rand_form(rng, C4, ga)
                b = rand_form(rng, C4, gb)
                left = contract(x, wedge(a, b))
                sign = -1 if ga % 2 else 1
                right = wedge(contract(x, a), b) + wedge(a, contract(x, b)) * sign
                assert left == right


def pairing_oracle(a: Form, field: Multivector) -> Polynomial:
    """Independent determinant pairing via explicit permutation expansion."""
    total = Polynomial.zero(a.chart)
    for key_a, ca in a.terms.items():
        for key_b, cb in field.terms.items():
            for sigma in permutations(range(len(key_b))):
                if tuple(key_b[s] for s in sigma) != key_a:
                    continue
                parity = 1
                perm = list(sigma)
                for i in range(len(perm)):
                    for j in range(i + 1, len(perm)):
                        if perm[i] > perm[j]:
                            parity = -parity
                total = total + ca * cb * parity
    return total


class TestPair:
    def test_defining_equation_n1(self):
        omega = standard_form(C2)
        lam = poisson_bivector(omega)
        q1, p1 = coordinates(C2)
        value = pair(wedge(differential(q1), differential(p1)), lam)
        assert value * omega == wedge(differential(q1), differential(p1))

    def test_vector_field_action(self):
        rng = random.Random(15)
        for _ in range(10):
            f = rand_poly(rng, C4)
            x = rand_multivector(rng, C4, 1)
            expected = Polynomial.zero(C4)
            for (i,), c in x.terms.items():
                expected = expected + c * f.diff(i)
            assert pair(differential(f), x) == expected

    def test_matching_tuple_only(self):
        chart = C4
        field = Multivector(chart, 2, {(0, 1): 1, (2, 3): 1})
        a = wedge(d("q1", chart), d("q2", chart))
        assert pair(a, field) == pairing_oracle(a, field)
        assert pair(a, field) == Polynomial.constant(chart, 1)

    def test_against_oracle_random(self):
        rng = random.Random(16)
        for grade in (1, 2, 3):
            for _ in range(8):
                a = rand_form(rng, C4, grade)
                field = rand_multivector(rng, C4, grade)
                assert pair(a, field) == pairing_oracle(a, field)

    def test_grade_mismatch(self):
        with pytest.raises(GradeMismatch):
            pair(d("q1"), Multivector(C2, 2, {(0, 1): 1}))


class TestVolumeTransfer:
    def test_volume_to_one(self):
        volume = Form(C4, 4, {(0, 1, 2, 3): 3})
        one = Multivector.from_polynomial(Polynomial.constant(C4, 1))
        assert mv_from_form(volume, volume) == one

    def test_round_trip(self):
        rng = random.Random(17)
        volume = Form(C4, 4, {(0, 1, 2, 3): Fraction(-2, 3)})
        for grade in (0, 1, 2, 3, 4):
            a = rand_form(rng, C4, 4 - grade)
            lam = mv_from_form(volume, a)
            assert contract(lam, volume) == a

    def test_inverse_of_contraction(self):
        rng = random.Random(18)
        volume = Form(C4, 4, {(0, 1, 2, 3): 5})
        for grade in (0, 1, 2, 3, 4):
            lam = rand_multivector(rng, C4, grade)
            assert mv_from_form(volume, contract(lam, volume)) == lam

    def test_standard_pair_normalization(self):
        sym = SymplecticData(standard_form(C4))
        volume = sym.volume()
        assert mv_from_form(volume, sym.omega) == sym.bivector

    def test_rejects_nonconstant_volume(self):
        q1 = Polynomial.variable(C4, "q1")
        volume = Form(C4, 4, {(0, 1, 2, 3): q1})
        with pytest.raises(DegenerateStructure):
            mv_from_form(volume, volume)

    def test_rejects_non_top(self):
        with pytest.raises(DegenerateStructure):
            mv_from_form(standard_form(C4), standard_form(C4))


class TestPoissonBivector:
    def test_one_degree_of_freedom(self):
        lam = poisson_bivector(standard_form(C2))
        assert lam == Multivector(C2, 2, {(0, 1): -1})  # e(p1)^e(q1)

    def test_magnetic_block(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        omega_b = magnetic_form(chart, qs[1], qs[2], qs[0])
        lam = poisson_bivector(omega_b)
        # momentum-momentum block carries the field components
        assert lam.coefficient((3, 4)) == qs[0]
        assert lam.coefficient((4, 5)) == qs[1]
        assert lam.coefficient((5, 3)) == qs[2]
        # position-position block vanishes, mixed block is the identity
        assert lam.coefficient((0, 1)).is_zero()
        assert lam.coefficient((3, 0)) == Polynomial.constant(chart, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStructure):
            poisson_bivector(Form.zero(C2, 2))

    def test_odd_dimension_rejected(self):
        chart = Chart(("x", "y", "z"))
        with pytest.raises(DegenerateStructure):
            poisson_bivector(Form(chart, 2, {(0, 1): 1}))

    def test_odd_dimension_is_one_message(self):
        # the check the scenario parser runs for every command that needs it
        chart = Chart(("x", "y", "z"))
        form = Form(chart, 2, {(0, 1): 1})
        for call in (lambda: poisson_bivector(form), lambda: SymplecticData(form), lambda: standard_form(chart)):
            with pytest.raises(DegenerateStructure) as err:
                call()
            assert str(err.value) == "chart must be even-dimensional, not 3-dimensional"

    def test_nonconstant_determinant_rejected(self):
        q1 = Polynomial.variable(C2, "q1")
        with pytest.raises(DegenerateStructure):
            poisson_bivector(Form(C2, 2, {(0, 1): q1 * q1 + 1}))

    DETERMINANT_MESSAGE = "coefficient matrix needs a constant nonzero determinant"

    def test_singular_constant_form_message(self):
        # Pfaffian 1*1 - 1*2 + 1*1 = 0 with no entry zero
        omega = Form(C4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 3): 2, (0, 3): 1, (1, 2): 1})
        with pytest.raises(DegenerateStructure, match=self.DETERMINANT_MESSAGE):
            poisson_bivector(omega)

    def test_nonconstant_determinant_message(self):
        q1, _, p1, _ = coordinates(C4)
        # Pfaffian q1 - p1, determinant (q1 - p1)^2
        omega = Form(C4, 2, {(0, 1): q1, (2, 3): 1, (0, 2): p1, (1, 3): 1})
        with pytest.raises(DegenerateStructure, match=self.DETERMINANT_MESSAGE):
            poisson_bivector(omega)
        with pytest.raises(DegenerateStructure, match=self.DETERMINANT_MESSAGE):
            poisson_bivector(Form(C4, 2, {(0, 2): q1, (1, 3): q1}))

    @settings(max_examples=60, deadline=None)
    @given(skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_constant_form_matches_scaled_adjugate(self, values):
        # a zero entry can make a small form singular: then both reject it
        omega = constant_form(values)
        expected = gauss_jordan_bivector(omega)
        if expected is None:
            with pytest.raises(DegenerateStructure, match=self.DETERMINANT_MESSAGE):
                poisson_bivector(omega)
        else:
            assert poisson_bivector(omega) == expected

    @settings(max_examples=30, deadline=None)
    @given(singular_constant_skew_matrices(wide_sizes, integer_entries | coprime_entries))
    def test_singular_constant_form(self, values):
        omega = constant_form(values)
        assert gauss_jordan_bivector(omega) is None
        with pytest.raises(DegenerateStructure) as err:
            poisson_bivector(omega)
        assert str(err.value) == self.DETERMINANT_MESSAGE

    @pytest.mark.parametrize("omega, expected", [
        (dense_constant_form(10, 21), None),
        # a dq^dp inverts to e(q)^e(p) / a
        *((Form(C2, 2, {(0, 1): a}), Multivector(C2, 2, {(0, 1): 1 / a}))
          for a in (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-7, 5))),
        (standard_form(C8), Multivector(C8, 2, {(j, 4 + j): -1 for j in range(4)})),  # 4 terms
    ], ids=["dense-10", "dq^dp", "-dq^dp", "3/2*dq^dp", "-7/5*dq^dp", "standard-8"])
    def test_constant_form_takes_no_product(self, monkeypatch, omega, expected):
        # the entries of -M^-1 come straight from elimination's integers: no
        # polynomial product, negation or scaling by -1/det
        if expected is None:
            expected = gauss_jordan_bivector(omega)

        def refuse(*args):
            raise AssertionError("a polynomial product or negation ran")

        for name in ("__mul__", "__rmul__", "__neg__", "_shifted"):
            monkeypatch.setattr(Polynomial, name, refuse)
        assert SymplecticData(omega).bivector == expected

    def test_matrix_layer_takes_the_upper_triangle(self, monkeypatch):
        # poisson_bivector hands both sweeps the form's own terms, with no
        # matrix built from them, and ConstraintSet the pairs above the diagonal
        seen = []
        for name in ("_polynomial_sweep", "_pfaffian_sweep"):
            def recorded(upper, *args, wrapped=getattr(poly, name)):
                seen.append(upper)
                return wrapped(upper, *args)

            monkeypatch.setattr(poly, name, recorded)
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        omegas = {"magnetic": magnetic_form(chart, qs[1], qs[2], qs[0]),
                  "pulled back": pulled_back_form(random.Random(61), C4)[1],
                  "dense": dense_constant_form(10, 21)}
        for name, omega in omegas.items():
            seen.clear()
            poisson_bivector(omega)
            assert seen and all(upper is omega.terms for upper in seen), name
        sym = SymplecticData(standard_form(C4))
        q1, q2, _, p2 = coordinates(C4)
        seen.clear()
        cs = ConstraintSet(sym, [q2, p2 + q1 * p2])
        assert not cs.bracket_matrix[0][1].is_constant()
        assert seen and all(i < j for upper in seen for i, j in upper)


class TestLieDerivative:
    def test_translation_direction(self):
        q1, _ = coordinates(C2)
        a = Form(C2, 1, {(1,): q1})  # q1 * dp1
        assert lie_derivative(e("q1"), a) == d("p1")

    def test_commutes_with_d(self):
        rng = random.Random(19)
        for grade in (0, 1, 2):
            x = rand_multivector(rng, C4, 1)
            a = rand_form(rng, C4, grade)
            assert lie_derivative(x, exterior_derivative(a)) == exterior_derivative(
                lie_derivative(x, a)
            )


class TestSymplecticData:
    def test_rejects_open_form(self):
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        zero = Polynomial.zero(chart)
        with pytest.raises(DegenerateStructure):
            SymplecticData(magnetic_form(chart, qs[0], zero, zero))

    def test_open_form_fails_before_the_inversion(self, monkeypatch):
        # q2 * d(p1)^d(q1) is neither closed nor nondegenerate: closedness,
        # the cheaper check, decides without inverting the form
        omega = coordinates(C4)[1] * wedge(d("p1", C4), d("q1", C4))

        def inverted(form):
            raise AssertionError("the form was inverted")

        monkeypatch.setattr(exterior, "poisson_bivector", inverted)
        with pytest.raises(NotClosed, match="symplectic form must be closed") as err:
            SymplecticData(omega)
        assert isinstance(err.value, DegenerateStructure)

    def test_only_an_open_form_is_not_closed(self):
        # closed but degenerate, and odd-dimensional: other failures keep their type
        q1 = coordinates(C4)[0]
        for omega in (q1 * wedge(d("p1", C4), d("q1", C4)), Form(Chart(("x", "y", "z")), 2, {(0, 1): 1})):
            with pytest.raises(DegenerateStructure) as err:
                SymplecticData(omega)
            assert not isinstance(err.value, NotClosed)

    def test_dense_constant_form_inverts_exactly(self):
        # every entry nonzero, so the elimination sees a full matrix
        m = 10
        omega = dense_constant_form(m, 21)
        chart = omega.chart
        lam = SymplecticData(omega).bivector
        # the bivector is minus the inverse of the coefficient matrix
        for i in range(m):
            for j in range(m):
                entry = sum((lam.coefficient((i, k)) * omega.coefficient((k, j)) for k in range(m)),
                            Polynomial.zero(chart))
                assert entry == -int(i == j)

    @pytest.mark.parametrize("m", (16, 24))
    def test_large_dense_constant_form_inverts_exactly(self, m):
        # sizes the fraction-free elimination reaches in well under a second;
        # the denominators 1-3 make the common denominator L = 6
        omega = dense_constant_form(m, m)
        chart = omega.chart
        lam = SymplecticData(omega).bivector
        for i in range(m):
            for j in range(m):
                entry = sum((lam.coefficient((i, k)) * omega.coefficient((k, j)) for k in range(m)),
                            Polynomial.zero(chart))
                assert entry == -int(i == j)

    def test_singular_dense_constant_form_rejected(self):
        # Pfaffian a01*a23 - a02*a13 + a03*a12 = 1 - 2 + 1 = 0, no entry zero
        omega = Form(C4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 3): 2, (0, 3): 1, (1, 2): 1})
        with pytest.raises(DegenerateStructure):
            SymplecticData(omega)

    def test_power_contraction_ladder(self):
        for n in (1, 2, 3):
            chart = darboux_chart(n)
            omega = standard_form(chart)
            lam = poisson_bivector(omega)
            for k in range(1, n + 1):
                left = contract(lam, form_power(omega, k))
                right = form_power(omega, k - 1) * Fraction(k * (n - k + 1))
                assert left == right

    def test_pairing_volume_identity_random(self):
        rng = random.Random(20)
        chart = Chart(("x1", "x2", "x3", "x4"))
        for k in (1, 2, 3, 4):
            for _ in range(6):
                lam = rand_multivector(rng, chart, k)
                volume = Form(chart, 4, {(0, 1, 2, 3): rand_poly(rng, chart)})
                if volume.is_zero():
                    continue
                dfw = None
                for _ in range(k):
                    df = differential(rand_poly(rng, chart))
                    dfw = df if dfw is None else wedge(dfw, df)
                assert pair(dfw, lam) * volume == wedge(dfw, contract(lam, volume))


class TestConventions:
    def test_pairing_matches_contraction_on_reference_chart(self):
        chart = Chart(("u", "v"))
        u = Polynomial.variable(chart, "u")
        v = Polynomial.variable(chart, "v")
        field = Multivector(chart, 2, {(0, 1): u + 1})
        volume = Form(chart, 2, {(0, 1): Fraction(5)})
        dd = wedge(differential(u * u + 3 * v), differential(u * v - 2))
        assert pair(dd, field) * volume == wedge(dd, contract(field, volume))

    def test_bivector_orientation(self):
        chart = Chart(("q", "p"))
        omega0 = standard_form(chart)
        assert contract(poisson_bivector(omega0), omega0) == Form.from_polynomial(
            Polynomial.constant(chart, 1))

    def test_bivector_inverts_the_form(self):
        # contracting the inverse bivector into the form gives n, for standard,
        # magnetic and random dense constant forms
        chart = darboux_chart(3)
        qs, _ = qp(chart)
        omegas = [standard_form(darboux_chart(n)) for n in (1, 2, 3)]
        omegas.append(magnetic_form(chart, qs[1], qs[2], qs[0]))
        rng = random.Random(21)
        while len(omegas) < 10:
            omega = Form(chart, 2, {key: rng.randint(-3, 3) for key in combinations(range(6), 2)})
            try:
                poisson_bivector(omega)
            except DegenerateStructure:
                continue
            omegas.append(omega)
        for omega in omegas:
            sym = SymplecticData(omega)
            assert contract(sym.bivector, sym.omega) == Form.from_polynomial(
                Polynomial.constant(sym.chart, sym.n))


class TestTrustedResults:
    """Builders hand their own terms to ``_of`` unchecked.  Each result must
    be the tensor the checking constructor makes of the same terms: increasing
    in-range index tuples of the grade, nonzero coefficients on the chart."""

    def check(self, t):
        rebuilt = type(t)(t.chart, t.grade, t.terms)
        assert rebuilt == t and rebuilt.grade == t.grade and rebuilt.terms == t.terms
        for key, value in t.terms.items():
            assert len(key) == t.grade
            assert all(0 <= i < t.chart.dim for i in key)
            assert all(a < b for a, b in zip(key, key[1:]))
            assert isinstance(value, Polynomial) and value.chart == t.chart
            assert not value.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from((0.2, 0.6, 1.0)))
    def test_tensor_builders(self, rng, ga, gb, density):
        a, b = rand_form(rng, C4, ga, density), rand_form(rng, C4, gb, density)
        x, y = rand_multivector(rng, C4, ga, density), rand_multivector(rng, C4, gb, density)
        same_grade = rand_form(rng, C4, ga, density)
        f = rand_poly(rng, C4)
        results = [wedge(a, b), wedge(x, y), exterior_derivative(a), differential(f),
                   schouten(x, y), a + same_grade, a - same_grade, a - a, -x, a * f, x * 0,
                   a * Fraction(-3, 2)]
        if ga <= gb:
            results.append(contract(x, b))
        volume = Form(C4, 4, {(0, 1, 2, 3): Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 5)))})
        results.append(mv_from_form(volume, a))
        for t in results:
            self.check(t)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_structure_builders(self, rng, c):
        # the standard form plus g(q) dq1^dq2 is closed with determinant 1;
        # a constant g takes the integer sweep, any other g the polynomial one
        q1, q2, _, _ = coordinates(C4)
        g = c[0] + c[1] * q1 + c[2] * q2 + c[3] * q1 * q2
        omega = standard_form(C4) + Form(C4, 2, {(0, 1): g})
        sym = SymplecticData(omega)
        fs = [rand_poly(rng, C4) for _ in range(3)]
        for t in (poisson_bivector(omega), hamiltonian_vf(sym, fs[0]), derived_vf(sym, 1, fs[0]),
                  derived_vf(sym, 2, *fs)):
            self.check(t)


class TestTermsAssignment:
    """Only the two tensor constructors set ``.terms``."""

    def test_terms_assigned_only_in_constructors(self):
        sites = set()

        def visit(node, path, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = scope + (child.name,)
                if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and target.attr == "terms":
                            sites.add((path.name, ".".join(scope)))
                visit(child, path, inner)

        modules = sorted((Path(__file__).resolve().parent.parent / "src" / "formcalc").glob("*.py"))
        assert len(modules) > 5
        for path in modules:
            visit(ast.parse(path.read_text()), path, ())
        assert sites == {("exterior.py", "_Graded.__init__"), ("exterior.py", "_Graded._of")}
