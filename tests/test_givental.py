"""Tests for the mirror polynomial, the expansion engine, and the period check."""

import random
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    LaurentPolynomial,
    build_fx,
    constant_term,
    fano_sweep,
    i_series,
    phi_series,
    verify_period,
)
from fanolg import givental
from fanolg.givental import _first_mismatch, _term_orbits

CUBIC_SURFACE = CompleteIntersection(2, (3,))
CUBIC_THREEFOLD = CompleteIntersection(3, (3,))
QUINTIC_FOURFOLD = CompleteIntersection(4, (5,))
QUADRIC_THREEFOLD = CompleteIntersection(3, (2,))


def trinomial_cubic_expansion():
    """Expected terms of (x1 + x2 + 1)^3 / (x1 x2), from the trinomial theorem."""
    terms = {}
    for a in range(4):
        for b in range(4 - a):
            coeff = factorial(3) // (factorial(a) * factorial(b) * factorial(3 - a - b))
            terms[(a - 1, b - 1)] = coeff
    return terms


def unpruned_powers(f, order):
    """Terms of f^0, ..., f^order by plain tuple-keyed multiplication without
    pruning: an oracle for the engine that shares none of its key packing."""
    acc = {(0,) * f.arity: 1}
    powers = [acc]
    for _ in range(order):
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in f.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = {e: c for e, c in nxt.items() if c}
        powers.append(acc)
    return powers


@st.composite
def laurent_polynomials(draw):
    arity = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(-3, 3)] * arity)
    terms = draw(st.dictionaries(exponents, st.integers(-4, 4), max_size=6))
    return LaurentPolynomial(arity, terms)


def symmetrized(f, classes):
    """The sum of g(f) over the permutations g that move variables only within
    their class, so the variables of a class are interchangeable in the sum."""
    terms = {}
    for images in product(*(permutations(cls) for cls in classes)):
        source = list(range(f.arity))
        for cls, image in zip(classes, images):
            for v, w in zip(cls, image):
                source[w] = v
        for e, c in f.terms.items():
            moved = tuple(e[source[u]] for u in range(f.arity))
            terms[moved] = terms.get(moved, 0) + c
    return LaurentPolynomial(f.arity, terms)


@st.composite
def symmetric_laurent_polynomials(draw):
    """A random Laurent polynomial symmetrized over a random partition of its
    variables."""
    arity = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, arity - 1), min_size=arity, max_size=arity))
    classes = [[v for v in range(arity) if labels[v] == c] for c in sorted(set(labels))]
    exponents = st.tuples(*[st.integers(-1, 2)] * arity)
    terms = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=4))
    return symmetrized(LaurentPolynomial(arity, terms), classes)


class TestLaurentPolynomial:
    def test_zero_coefficients_dropped(self):
        f = LaurentPolynomial(2, {(0, 1): 5, (1, 0): 0})
        assert f.terms == {(0, 1): 5}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LaurentPolynomial(2, {(1,): 1})

    def test_multiplication_by_hand(self):
        # (x - 1/x)^2 = x^2 - 2 + 1/x^2
        f = LaurentPolynomial(1, {(1,): 1, (-1,): -1})
        assert unpruned_powers(f, 2)[2] == {(2,): 1, (0,): -2, (-2,): 1}
        assert constant_term(f, 2) == -2
        # (x + y + 1/(x y))^3 has constant term 3!/(1! 1! 1!)
        g = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert constant_term(g, 3) == 6

    def test_power(self):
        # (x + 1/x)^n has constant term C(n, n/2) for even n, 0 for odd n
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert unpruned_powers(f, 2)[2] == {(2,): 1, (0,): 2, (-2,): 1}
        assert [constant_term(f, n) for n in range(7)] == [1, 0, 2, 0, 6, 0, 20]


class TestBuildFx:
    def test_cubic_surface_full_expansion(self):
        f = build_fx(CUBIC_SURFACE)
        assert f.arity == 2
        assert f.terms == trinomial_cubic_expansion()
        assert f.term_count() == 10
        assert f.coefficient((0, 0)) == 6

    def test_quadric_threefold_structure(self):
        f = build_fx(QUADRIC_THREEFOLD)
        assert f.arity == 3
        # (x + 1)^2 / (x y1 y2) + y1 + y2
        assert f.terms == {
            (1, -1, -1): 1,
            (0, -1, -1): 2,
            (-1, -1, -1): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
        }

    def test_arity_equals_dimension(self):
        for ci in fano_sweep(6, 3, 4):
            assert build_fx(ci).arity == ci.dim

    def test_term_count(self):
        for ci in fano_sweep(5, 2, 4):
            expected = 1
            for d in ci.degrees:
                expected *= comb(2 * d - 1, d)
            assert build_fx(ci).term_count() == expected + ci.l, ci


class TestConstantTerm:
    def test_zeroth_power(self):
        assert constant_term(build_fx(CUBIC_SURFACE), 0) == 1

    def test_first_power_cubic_surface(self):
        assert constant_term(build_fx(CUBIC_SURFACE), 1) == 6

    def test_square_cubic_threefold(self):
        assert constant_term(build_fx(CUBIC_THREEFOLD), 2) == 12
        assert factorial(2) * factorial(3) // factorial(1) ** 5 == 12

    def test_agrees_with_unpruned_power(self):
        rng = random.Random(20240817)
        for _ in range(5):
            arity = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(2, 5)):
                e = tuple(rng.randint(-2, 2) for _ in range(arity))
                terms[e] = rng.randint(-3, 3)
            f = LaurentPolynomial(arity, terms)
            powers = unpruned_powers(f, 4)
            for n in range(5):
                assert constant_term(f, n) == powers[n].get((0,) * arity, 0)

    @settings(max_examples=150, deadline=None)
    @given(laurent_polynomials(), st.integers(0, 8))
    def test_property_agrees_with_unpruned_power(self, f, order):
        zero = (0,) * f.arity
        expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, order))
        assert phi_series(f, order).coefficients == expected

    def test_orders_of_both_parities_agree_with_unpruned_powers(self):
        # the last constant term comes from P[h] . P[h] at even orders 2h, and
        # at odd orders 2h - 1 from P[h-1]^2 against the terms of f, one term
        # per orbit of the interchangeable variables (x and y in the fifth case)
        cases = [
            LaurentPolynomial(1, {(1,): 1, (-1,): 1}),
            LaurentPolynomial(2, {(1, 0): 2, (0, 1): -1, (-1, -1): 1, (0, 0): 3}),
            LaurentPolynomial(2, {(2, -1): 1, (-1, 1): -2, (-1, 0): 1, (0, -1): 1}),
            build_fx(CUBIC_SURFACE),
            symmetrized(
                LaurentPolynomial(3, {(1, 0, 0): 1, (0, 0, 1): 2, (-1, -1, 0): 1, (1, -1, 1): -1}),
                [[0, 1], [2]],
            ),
        ]
        for f in cases:
            zero = (0,) * f.arity
            expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 12))
            for order in range(13):
                assert phi_series(f, order).coefficients == expected[: order + 1], (f, order)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_laurent_polynomials())
    def test_property_symmetric_agrees_with_unpruned_power(self, f):
        zero = (0,) * f.arity
        expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 9))
        for order in range(10):
            assert phi_series(f, order).coefficients == expected[: order + 1], order

    def test_odd_orders_on_skewed_supports(self):
        # lo = -1, hi = 5 in the first variable: at the odd last step -(e+t)
        # leaves the box [min(0, order*lo), max(0, order*hi)] (below -3 at
        # order 3), in a variable whose digit is not the last of the key
        cases = [
            LaurentPolynomial(1, {(5,): 1, (-1,): 2, (2,): 1}),
            LaurentPolynomial(2, {(5, -1): 1, (-1, 0): 3, (0, 1): -1, (1, -1): 2}),
            LaurentPolynomial(2, {(5, 1): 1, (-1, 0): 1, (2, 0): -2, (1, 0): 2}),
            LaurentPolynomial(
                3, {(5, -1, 1): 1, (-1, 0, -1): 2, (-1, 1, 0): 1, (0, 0, 1): -1, (1, -1, -1): 2}
            ),
        ]
        for f in cases:
            zero = (0,) * f.arity
            expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 11))
            assert any(expected[1::2]), f
            for order in range(1, 12, 2):
                assert phi_series(f, order).coefficients == expected[: order + 1], (f, order)

    def test_variable_that_cannot_cancel(self):
        f = LaurentPolynomial(1, {(1,): 1, (2,): 1})
        assert constant_term(f, 0) == 1
        assert constant_term(f, 3) == 0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            constant_term(build_fx(CUBIC_SURFACE), -1)


def phi_within(monkeypatch, f, order, budget):
    """``phi_series(f, order)`` with ``MAX_TERM_PRODUCTS`` set to ``budget``."""
    monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", budget)
    return phi_series(f, order)


class TestWorkBudget:
    def test_budget_counts_term_products(self, monkeypatch):
        # x + 1/x to order 2: 1 * 2 products for f^1, then the dot products
        # f^1 . f^0 (1, the smaller side) and f^1 . f^1 (2)
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert phi_within(monkeypatch, f, 2, 5).coefficients == (1, 0, 2)
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 2, 4)

    def test_budget_is_charged_before_the_work(self, monkeypatch):
        calls = []

        class CountingInt(int):
            def __mul__(self, other):
                calls.append(1)
                return int.__mul__(self, other)

            __rmul__ = __mul__

        f = LaurentPolynomial(1, {(1,): CountingInt(1), (-1,): CountingInt(1)})
        assert phi_series(f, 2).coefficients == (1, 0, 2)
        assert len(calls) == 2  # the products of f^0 = 1 with the two terms
        calls.clear()
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 2, 1)
        assert calls == []

    def test_odd_last_step_is_charged_per_orbit(self, monkeypatch):
        # x + 1/x to order 3: 2 products for f^1, the dot products f^1 . f^0
        # (1) and f^1 . f^1 (2), then f^3 read from f^1: 2 terms times 2 orbits
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert phi_within(monkeypatch, f, 3, 9).coefficients == (1, 0, 2, 0)
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 3, 8)

    def test_quintic_fourfold_charge(self, monkeypatch):
        # 126 (P[1]) + 126 * 126 (P[2]) + 1 + 126 + 126 + 721 (dot products)
        # + 721 * 18 (the last step over 18 orbits); forming P[3] as well
        # would add 721 * 126
        f = build_fx(QUINTIC_FOURFOLD)
        expected = i_series(QUINTIC_FOURFOLD, 5).coefficients
        assert phi_within(monkeypatch, f, 5, 29_954).coefficients == expected
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 5, 29_953)

    def test_terms_of_f_are_charged_before_building(self, monkeypatch):
        # f of the quintic fourfold has C(9, 4) = 126 terms
        monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", 126)
        assert build_fx(QUINTIC_FOURFOLD).term_count() == 126
        monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", 125)
        with pytest.raises(BudgetExceeded, match="more than 125 terms"):
            build_fx(QUINTIC_FOURFOLD)

    def test_terms_of_f_formula(self):
        for ci in fano_sweep(8, 3, 6):
            expected = prod(comb(2 * d - 1, d - 1) for d in ci.degrees) + ci.l
            assert build_fx(ci).term_count() == expected, ci

    def test_default_budget_stops_a_runaway_expansion(self):
        # f has 1,716 terms; power 3 alone would form about 57M products
        with pytest.raises(BudgetExceeded, match="term products"):
            verify_period(CompleteIntersection(6, (7,)), 7)


class TestTermOrbits:
    def test_quintic_fourfold(self):
        # the four x-variables are interchangeable
        weights = _term_orbits(build_fx(QUINTIC_FOURFOLD))
        assert len(weights) == 18
        assert sum(weights.values()) == 126

    def test_no_interchangeable_variables(self):
        f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (-1, -1, -1): 1})
        assert _term_orbits(f) == {e: 1 for e in f.terms}

    def test_blocks_of_a_mirror_polynomial(self):
        # (x1 + x2 + 1)^2 (x3 + 1)^2 / (x1 x2 x3 y) + y: only x1, x2 interchange
        f = build_fx(CompleteIntersection(4, (3, 2)))
        weights = _term_orbits(f)
        assert sum(weights.values()) == f.term_count()
        for e, weight in weights.items():
            assert weight == (1 if e[0] == e[1] else 2)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_laurent_polynomials())
    def test_property_orbits_cover_the_terms(self, f):
        weights = _term_orbits(f)
        assert sum(weights.values()) == len(f.terms)
        assert all(e in f.terms for e in weights)


class TestPhiSeries:
    def test_order_zero(self):
        series = phi_series(build_fx(QUADRIC_THREEFOLD), 0)
        assert series.coefficients == (1,)

    def test_cubic_surface_against_factorial_oracle(self):
        series = phi_series(build_fx(CUBIC_SURFACE), 3)
        expected = tuple(factorial(3 * m) // factorial(m) ** 3 for m in range(4))
        assert series.coefficients == expected == (1, 6, 90, 1680)

    def test_cubic_threefold_against_factorial_oracle(self):
        series = phi_series(build_fx(CUBIC_THREEFOLD), 4)
        expected = [0] * 5
        for m in range(3):
            expected[2 * m] = factorial(2 * m) * factorial(3 * m) // factorial(m) ** 5
        assert series.coefficients == tuple(expected) == (1, 0, 12, 0, 540)

    def test_leading_coefficient_is_one(self):
        for ci in fano_sweep(4, 2, 3):
            assert phi_series(build_fx(ci), 2).coefficients[0] == 1


class TestISeries:
    def test_cubic_threefold(self):
        assert i_series(CUBIC_THREEFOLD, 2).coefficients == (1, 0, 12)

    def test_cubic_surface(self):
        assert i_series(CUBIC_SURFACE, 2).coefficients == (1, 6, 90)

    def test_index_zero_coefficient(self):
        for ci in fano_sweep(5, 2, 4):
            assert i_series(ci, 0).coefficients == (1,)

    def test_alpha_metadata(self):
        assert i_series(CUBIC_SURFACE, 1).alpha == factorial(3)
        assert i_series(CUBIC_THREEFOLD, 1).alpha == 0
        assert i_series(CompleteIntersection(4, (2, 4)), 1).alpha == 2 * 24

    def test_coefficients_are_exact_integers(self):
        # index is 8, so the second nonzero coefficient sits at t^16
        series = i_series(CompleteIntersection(8, (2,)), 16)
        assert series.coefficients[16] == factorial(16) * factorial(4) // 2 ** 10


class TestVerifyPeriod:
    @pytest.mark.parametrize(
        "ci, order",
        [
            (CUBIC_SURFACE, 4),
            (CUBIC_THREEFOLD, 6),
            (CompleteIntersection(2, (2,)), 4),
        ],
    )
    def test_matches(self, ci, order):
        report = verify_period(ci, order)
        assert report.match
        assert report.first_mismatch is None
        assert report.phi.coefficients == report.i0.coefficients

    def test_sweep_with_divisibility(self):
        for ci in fano_sweep(5, 2, 4):
            order = 3 * ci.index
            report = verify_period(ci, order)
            assert report.match, ci
            for n in range(order + 1):
                if n % ci.index:
                    assert report.phi.coefficients[n] == 0, (ci, n)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(fano_sweep(6, 2, 7))), st.data())
    def test_property_random_fano(self, ci, data):
        order = data.draw(st.integers(0, ci.index + 1), label="order")
        report = verify_period(ci, order)
        assert report.match
        assert all(c == 0 for n, c in enumerate(report.phi.coefficients) if n % ci.index)

    def test_quadric_fourfold_to_order_40(self):
        # index 4: ten nonzero coefficients, the last at t^40
        ci = CompleteIntersection(4, (2,))
        report = verify_period(ci, 40)
        assert report.match
        assert report.phi.coefficients == i_series(ci, 40).coefficients

    def test_first_mismatch_helper(self):
        assert _first_mismatch((1, 2, 3), (1, 2, 3)) is None
        assert _first_mismatch((1, 2, 3), (1, 5, 3)) == 1
        assert _first_mismatch((0,), (1,)) == 0
