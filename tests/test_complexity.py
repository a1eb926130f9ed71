"""Exact work counts for the polynomial kernel, in place of timings.

Each test wraps private kernel functions with ``monkeypatch`` and counts
what they are handed: the term pairs that ``poly._add_product`` and
``Polynomial._shifted`` multiply, and the polynomials ``poly._make`` builds
with the terms they hold.  The counts are exact functions of the input, so a
complexity claim is pinned with no timing noise (after Goldsmith, Aiken &
Wilkerson, "Measuring empirical computational complexity", ESEC/FSE 2007,
with exact counts in place of fitted times).
"""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from formcalc import Chart, Polynomial, coordinates, parse_expr
from formcalc import poly as poly_module

from tests.helpers import rand_poly


@pytest.fixture
def work(monkeypatch):
    """A ``Counter`` of ``pairs`` (term pairs multiplied), ``built``
    (polynomials made) and ``terms`` (the terms those hold)."""
    counts = Counter()
    add_product, shifted, make = poly_module._add_product, Polynomial._shifted, poly_module._make

    def counted_add_product(out, large, small, negate):
        counts["pairs"] += len(large) * len(small)
        return add_product(out, large, small, negate)

    def counted_shifted(self, shift, factor):
        counts["pairs"] += self.term_count()
        return shifted(self, shift, factor)

    def counted_make(chart, terms, degree):
        counts["built"] += 1
        counts["terms"] += len(terms)
        return make(chart, terms, degree)

    monkeypatch.setattr(poly_module, "_add_product", counted_add_product)
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


TOKEN = re.compile(r"\d+|[A-Za-z]\w*|[-+*/^()]")


def test_parse_work_is_linear(work):
    # str((x1 + ... + x10 + 1)^k), k = 3..6: 286 to 8,008 terms and 2.1k to
    # 96k tokens.  Per token, the polynomials built and the terms held by all
    # but the result stay within 5 % of each other (about 0.81 each; one
    # partial sum per term would make the terms grow with k).  One term pair
    # is multiplied per ``*`` and one per term of the sum.
    chart = Chart(tuple(f"x{i}" for i in range(1, 11)))
    base = sum(coordinates(chart), Polynomial.constant(chart, 1))
    rates = []
    for k in range(3, 7):
        expected = base ** k
        text = str(expected)
        tokens = len(TOKEN.findall(text))
        work.clear()
        assert parse_expr(text, chart) == expected
        assert work["pairs"] == text.count("*") + expected.term_count()
        rates.append((work["built"] / tokens, (work["terms"] - expected.term_count()) / tokens))
    for ratios in zip(*rates):
        assert max(ratios) <= 1.05 * min(ratios), ratios
